// OFAR: On-the-Fly Adaptive Routing — the paper's contribution (§IV).
//
// Unlike every VC-ordered predecessor, OFAR decides misrouting *in transit*,
// per hop, from credit information local to the current router:
//
//  - each head packet has a recomputed minimal output every cycle; if that
//    output can take the packet it is requested;
//  - otherwise, if the misroute thresholds allow (Q_min >= Th_min and a
//    candidate with occupancy <= Th_nonmin exists), the packet requests a
//    random eligible non-minimal output:
//      * global misroute — only in the source group, only once per packet
//        (header flag), only for inter-group traffic. Packets still in
//        their injection queue misroute globally (saving Valiant's first
//        local hop); packets in local queues first misroute locally, then
//        globally (preventing starvation of the saturated router's own
//        nodes, §IV-A);
//      * local misroute — once per group (header flag); outside the source
//        group it is only allowed when the minimal output is itself a
//        saturated local port;
//  - as a last resort the packet asks to enter the deadlock-free escape
//    ring (bubble-restricted injection, §IV-C).
//
// OFAR-L is the same policy with local misrouting disabled (the paper's
// ablation that isolates the benefit of local misroute, §IV-A).
#pragma once

#include <vector>

#include "common/phase.hpp"
#include "common/rng.hpp"
#include "core/escape_ring.hpp"
#include "routing/routing.hpp"

namespace ofar {

class OfarPolicy final : public RoutingPolicy {
 public:
  OfarPolicy(const SimConfig& cfg, bool allow_local);

  const char* name() const noexcept override {
    return allow_local_ ? "OFAR" : "OFAR-L";
  }

  RouteChoice route(RouteContext& ctx) override;
  void bind_lanes(u32 lanes) override;
  void save_state(CkptWriter& w) const override;
  void load_state(CkptReader& r) override;

 private:
  /// Per-shard route() state: the candidate RNG and its scratch list.
  /// route() runs concurrently on different shards, so each lane owns
  /// both. Lane 0 is the stream the sim_shards = 1 golden digests were
  /// recorded with.
  struct Lane {
    explicit Lane(u64 seed) : rng(seed) {}
    OFAR_LANE_RNG Rng rng;
    std::vector<PortId> scratch;
  };

  /// Threshold below which a non-minimal output is an eligible candidate.
  double nonmin_threshold(double q_min) const noexcept {
    return thresholds_.variable ? thresholds_.nonmin_factor * q_min
                                : thresholds_.th_nonmin_static;
  }

  /// Appends eligible local-misroute candidate ports at router `at`;
  /// credit/occupancy checks go through the memoized view (bound to `at`).
  /// `gap_ceiling` is Q_min - min_gap for the decision in flight.
  void collect_local(const Network& net, CreditView& view, RouterId at,
                     PortId min_port, double th, double gap_ceiling,
                     std::vector<PortId>& out) const;
  /// Appends eligible global-misroute candidate ports at router `at`.
  void collect_global(const Network& net, CreditView& view, RouterId at,
                      PortId min_port, GroupId dst_group, double th,
                      double gap_ceiling, std::vector<PortId>& out) const;

  MisrouteThresholds thresholds_;
  EscapeRingControl ring_;
  bool allow_local_;
  u64 seed_;  ///< salted policy seed, basis for the per-lane streams
  OFAR_LANE_RNG std::vector<Lane> lanes_;
};

}  // namespace ofar
