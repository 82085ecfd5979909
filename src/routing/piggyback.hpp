// PB: Piggybacking (Jiang, Kim & Dally, ISCA'09; paper §V baseline).
//
// Injection-time adaptive routing with remote information: every router
// continuously classifies each of its global output channels as saturated
// or not (occupancy above a threshold) and broadcasts the flags to all
// routers of its group (piggybacked on regular traffic; modelled here as a
// group-wide table refreshed every `pb_broadcast_delay` cycles). At
// injection the router picks a random Valiant candidate and routes
// minimally iff the minimal path's global channel is not flagged saturated
// AND the UGAL queue comparison q_min*H_min <= q_val*H_val + T holds;
// otherwise the packet commits to the Valiant path. The decision is final —
// no in-transit adaptation (that is OFAR's contribution).
#pragma once

#include <vector>

#include "routing/valiant.hpp"

namespace ofar {

class PiggybackPolicy final : public ValiantPolicy {
 public:
  explicit PiggybackPolicy(const SimConfig& cfg);

  const char* name() const noexcept override { return "PB"; }

  void on_inject(Network& net, Packet& pkt, RouterId at) override;
  void tick(Network& net) override;
  void io(CkptArchive& ar, const Network& net) override;

  /// Visible (broadcast) saturation flag of router r's global port index j.
  bool saturated(RouterId r, u32 global_index) const {
    return visible_[r * h_ + global_index] != 0;
  }

 private:
  u32 h_ = 0;
  double threshold_;
  u32 delay_;
  std::vector<u8> current_;  // locally known, updated every cycle
  std::vector<u8> visible_;  // what group-mates see (delayed broadcast)
  Cycle last_broadcast_ = 0;
  bool initialised_ = false;
};

}  // namespace ofar
