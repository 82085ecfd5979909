// Iterative separable batch allocator (paper §V, resembling Gupta &
// McKeown's crossbar scheduler): per cycle, each input unit requests one
// output for its selected head packet; input-level and output-level LRS
// arbiters match requests over a configurable number of iterations
// (paper uses 3). Grants are per packet ("batch"): the winner streams its
// whole packet before the ports rejoin arbitration.
//
// SeparableAllocator keeps request/match state in packed bitmask words
// (one u64 of input ports per output, one u8 of VCs per input) scanned with
// countr_zero, so an arbiter round is a few word operations instead of
// nested per-port vector walks. It is equivalent to the original
// per-port-vector implementation, which tests/reference_allocator.hpp keeps
// as the executable specification: LRS picks are order-independent (strict
// min over (last_grant, index) — see LrsArbiter::pick_mask) and stage 1
// forwards at most one request per input per iteration, making stage-2
// outputs independent within an iteration. tests/test_alloc_equiv.cpp pits
// the two against each other over randomized and exhaustive-small request
// matrices.
//
// The allocator owns reusable scratch — allocation runs for every active
// router every cycle, so it never touches the heap in steady state.
#pragma once

#include <vector>

#include "common/phase.hpp"
#include "common/types.hpp"
#include "routing/routing.hpp"
#include "sim/router.hpp"

namespace ofar {

struct AllocRequest {
  PortId in_port = 0;
  VcId in_vc = 0;
  PacketId packet = kInvalidPacket;
  RouteChoice choice{};
  bool granted = false;
};

// Shard-local: each shard owns one allocator instance (in its ShardState),
// and a router is only ever advanced by its owning shard, so the scratch
// arrays below are never shared across workers.
class OFAR_SHARD_LOCAL SeparableAllocator {
 public:
  /// Width of the per-input VC request bitmask; matches the "input VC
  /// bitmask is 8 bits wide" construction check (Router::input_mask).
  static constexpr u32 kMaxVcs = 8;

  /// `max_ports` = ports per router (scratch sizing); must be <= 64 so an
  /// input-port set packs into one u64 (checked at Network construction).
  explicit SeparableAllocator(u32 max_ports);

  /// Runs the separable allocation over `reqs` (all requests of one router
  /// for this cycle). Marks winning requests granted and updates the
  /// router's LRS arbiter state. At most one grant per input port and per
  /// output port. Parallel-legal: each shard owns one allocator (in its
  /// ShardState) and only passes routers of its own shard.
  OFAR_PARALLEL_PHASE void run(Router& router,
                               std::vector<AllocRequest>& reqs,
                               u32 iterations, Cycle now);

 private:
  u32 max_ports_ = 0;
  // Request matrix, rebuilt per run (lazily cleared via the in-use masks):
  std::vector<u16> req_at_;   // [in * kMaxVcs + vc] -> index into reqs
  std::vector<u8> vc_req_;    // [in] -> bitmask of requesting VCs
  // Stage-1 forwards of the current iteration:
  std::vector<u64> fwd_mask_;  // [out] -> bitmask of forwarding input ports
  std::vector<u16> fwd_req_;   // [out * max_ports + in] -> index into reqs
};

}  // namespace ofar
