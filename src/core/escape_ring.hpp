// Escape-subnetwork control: bubble flow control on the Hamiltonian ring
// (paper §IV-C; Carrión et al. bubble flow control).
//
// Rules implemented here:
//  - a packet moving ring->ring needs space for one whole packet in the
//    next ring buffer (plain VCT admission);
//  - a packet *entering* the ring from the canonical network needs space
//    for TWO packets (its own plus the bubble that keeps the ring live);
//  - a packet in the ring leaves as soon as its minimal output is free
//    (checked by the caller), but only `max_ring_exits` times — after that
//    it rides the ring to its destination router (livelock guard);
//  - the ring is strictly a last resort: entry is requested only when the
//    minimal path is unavailable and no misroute candidate exists.
#pragma once

#include "common/config.hpp"
#include "common/phase.hpp"
#include "routing/routing.hpp"

namespace ofar {

class EscapeRingControl {
 public:
  explicit EscapeRingControl(const SimConfig& cfg)
      : packet_size_(cfg.packet_size), max_exits_(cfg.max_ring_exits) {}

  u32 max_exits() const noexcept { return max_exits_; }

  /// Choice for a head packet that is currently riding the ring at router
  /// ctx.at: eject at the destination router, exit to the minimal path when
  /// free and exits remain, otherwise continue along the ring (bubble
  /// permitting) or wait. ctx.prov, when non-null, records the minimal
  /// output an exit was tried on. A wait always parks: ctx.wake names the
  /// exit it tried and the ring output.
  OFAR_PARALLEL_PHASE RouteChoice ride(RouteContext& ctx) const;

  /// Ring-entry choice for a canonical packet at router ctx.at; invalid
  /// when the bubble condition fails or the ring output is busy, and then
  /// the ring output is ORed into ctx.wake.
  OFAR_PARALLEL_PHASE RouteChoice enter(RouteContext& ctx) const;

 private:
  /// Ring-output request with `need` phits of escape-VC credit, read from
  /// the view's once-per-bind ring summary; a failure ORs the ring output
  /// into ctx.wake.
  RouteChoice ring_step(RouteContext& ctx, u32 need) const;

  u32 packet_size_;
  u32 max_exits_;
};

}  // namespace ofar
