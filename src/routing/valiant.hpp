// VAL: Valiant routing (paper §V baseline; Valiant '82).
//
// Every inter-group packet is first sent minimally to a random intermediate
// group (different from source and destination), then minimally to its
// destination — the classic load-balancing answer to adversarial patterns,
// at the price of doubled global-link utilisation. Intra-group packets
// bounce through a random intermediate router of the group, which balances
// local links the same way.
#pragma once

#include <vector>

#include "common/phase.hpp"
#include "common/rng.hpp"
#include "routing/routing.hpp"

namespace ofar {

class ValiantPolicy : public RoutingPolicy {
 public:
  explicit ValiantPolicy(const SimConfig& cfg);

  const char* name() const noexcept override { return "VAL"; }

  void on_inject(Network& net, Packet& pkt, RouterId at) override;
  RouteChoice route(RouteContext& ctx) override;
  void bind_lanes(u32 lanes) override;
  void save_state(CkptWriter& w) const override;
  void load_state(CkptReader& r) override;

 protected:
  /// Assigns pkt's Valiant intermediate (group or router); used by the
  /// adaptive injection-time mechanisms (PB/UGAL) as well. Injection-time
  /// only, hence always the lane-0 stream.
  void assign_intermediate(Network& net, Packet& pkt, RouterId at);

  /// RNG stream for route()-time draws of shard `lane` (PAR's UGAL probe).
  /// Lane 0 is rng_ itself, the stream the sim_shards = 1 golden digests
  /// were recorded with. The phases
  /// that draw from lane 0 via route() (parallel allocation) and via
  /// on_inject (serial injection) never overlap, so sharing is safe.
  OFAR_LANE_RNG Rng& route_rng(u32 lane) noexcept {
    return lane == 0 ? rng_ : lane_rngs_[lane - 1];
  }

  /// The sequential stream. NOT lane-annotated: route()-reachable code must
  /// go through route_rng(lane) — ofar_lint flags direct rng_ draws there.
  OFAR_SERIAL_ONLY Rng rng_;

 private:
  u64 seed_;  ///< salted policy seed, basis for the extra lane streams
  OFAR_LANE_RNG std::vector<Rng> lane_rngs_;
};

}  // namespace ofar
