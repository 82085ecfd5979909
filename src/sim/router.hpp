// Input-buffered virtual cut-through router state (paper §V).
//
// Each router has one input unit (per-VC FIFOs) and one output unit
// (downstream credit counters + at most one active packet transfer) per
// port, plus the LRS arbiter state of its separable allocator. All per-cycle
// orchestration lives in Network; Router is state + small queries.
//
// Storage layout: the per-VC state every hot scan touches — downstream
// credit counters and ramps, FIFO metadata + ring slots, head-busy flags —
// lives in contiguous per-SHARD arenas (sim/flat_state.hpp), laid out
// router/port/VC-major; InputPort/OutputPort hold Span views into them. The
// allocation and routing scans of a shard therefore stream through a few
// flat arrays instead of chasing per-router heap vectors. Arenas allocate in
// large stable-address chunks (see ShardArena), so routers can be bound
// lazily on first touch while every Span stays valid for the network's
// lifetime.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/phase.hpp"
#include "common/span.hpp"
#include "common/types.hpp"
#include "sim/arbiter.hpp"
#include "sim/fifo.hpp"

namespace ofar {

struct OutputPort {
  ChannelId channel = kInvalidChannel;  ///< invalid on unwired global ports
  /// latency * K + owner, cached at wiring time: an event sent at wheel
  /// slot s goes to bucket (s * K + wheel_offset) mod (wheel size * K) of
  /// the sending shard's hop wheel, where `owner` is the shard that applies
  /// it (the destination router's; the source's for ejection). The
  /// transfer loop never resolves a descriptor.
  u32 wheel_offset = 0;
  /// Per downstream VC, phits free once every credit on its way back has
  /// landed. Credits return as ramps: the downstream FIFO sends a packet
  /// one phit per cycle, so its credits land one per cycle, the last at
  /// ramp_end[v]. credit() subtracts the part still to land.
  Span<u32> credits;
  Span<u32> credit_cap;                 ///< per downstream VC, buffer size
  Span<u32> ramp_end;                   ///< per downstream VC, u32 cycle

  // Active batch transfer (whole packet streams at 1 phit/cycle).
  PacketId active = kInvalidPacket;
  VcId active_vc = 0;
  PortId src_port = 0;
  VcId src_vc = 0;
  u32 phits_left = 0;

  bool wired() const noexcept { return channel != kInvalidChannel; }
  bool busy() const noexcept { return active != kInvalidPacket; }

  /// Credits of VC v's ramp that land after cycle `now`. A ramp is at most
  /// one packet long, and a packet at most 0xFFFF phits (the FIFO bound),
  /// so a ramp_end further ahead than that is a stamp from 2^32 cycles ago
  /// whose ramp has long landed.
  u32 pending(u32 v, u32 now) const noexcept {
    const u32 ahead = ramp_end[v] - now;
    return ahead <= 0xFFFFu ? ahead : 0;
  }
  /// Credits of VC v usable at cycle `now`.
  u32 credit(u32 v, u32 now) const noexcept {
    const u32 p = pending(v, now);
    OFAR_DCHECK(p <= credits[v]);
    return credits[v] - p;
  }

  /// VC in [first, first+count) with the most credits at cycle `now`,
  /// provided it has at least `need`. Returns false when no VC qualifies.
  bool best_vc(u32 first, u32 count, u32 need, u32 now,
               VcId& out) const noexcept {
    u32 best = 0;
    bool found = false;
    for (u32 v = first; v < first + count; ++v) {
      OFAR_DCHECK(v < credits.size());
      const u32 c = credit(v, now);
      if (c >= need && (!found || c > best)) {
        best = c;
        out = static_cast<VcId>(v);
        found = true;
      }
    }
    return found;
  }

  /// Occupancy fraction (1 - free/capacity) over VCs [first, first+count)
  /// at cycle `now`: the congestion measure OFAR and PB thresholds operate
  /// on (paper §IV-B).
  double occupancy(u32 first, u32 count, u32 now) const noexcept {
    u64 free = 0, cap = 0;
    for (u32 v = first; v < first + count; ++v) {
      free += credit(v, now);
      cap += credit_cap[v];
    }
    if (cap == 0) return 1.0;
    return 1.0 - static_cast<double>(free) / static_cast<double>(cap);
  }

  /// Total phits queued downstream (capacity - credits) over a VC range at
  /// cycle `now`.
  u32 queued_phits(u32 first, u32 count, u32 now) const noexcept {
    u32 q = 0;
    for (u32 v = first; v < first + count; ++v)
      q += credit_cap[v] - credit(v, now);
    return q;
  }
};

struct InputPort {
  ChannelId in_channel = kInvalidChannel;  ///< invalid for injection ports
  /// latency * K + owner of the credit return path, cached at wiring time
  /// like OutputPort::wheel_offset; the owner is the upstream router's
  /// shard.
  u32 credit_offset = 0;
  Span<VcFifo> vcs;
  Span<u8> head_busy;  ///< per VC: head packet is mid-transfer

  /// A FIFO entry exists from its head phit's arrival on, so a queued head
  /// that does not stream can be routed.
  bool has_head(VcId v) const noexcept {
    return !vcs[v].empty() && head_busy[v] == 0;
  }

  /// Phits VC v stores at cycle `now`.
  u32 stored_phits(u32 v, u32 now) const noexcept {
    return vcs[v].stored_phits(now, head_busy[v] != 0);
  }

  /// Best-fit injection scan at cycle `now`: the VC with the most free
  /// space that still fits a whole `size`-phit packet. This is the single
  /// placement rule for injection queues — the fits-probe (do_injection)
  /// and the placement (try_inject / place_packet) both call it, so they
  /// can never diverge. Returns false (out_vc = kInvalidIndex) when no VC
  /// fits. A port outside a running network is at cycle 0.
  bool best_fit_vc(u32 size, u32& out_vc, u32 now = 0) const noexcept {
    u32 best_free = 0;
    out_vc = kInvalidIndex;
    for (u32 v = 0; v < vcs.size(); ++v) {
      const u32 free = vcs[v].capacity() - stored_phits(v, now);
      if (free >= size && free > best_free) {
        best_free = free;
        out_vc = v;
      }
    }
    return out_vc != kInvalidIndex;
  }
};

// Shard-local: a router belongs to exactly one shard of the sharded cycle
// kernel; parallel phases may mutate only routers of their own shard.
struct OFAR_SHARD_LOCAL Router {
  RouterId id = 0;
  std::vector<InputPort> inputs;   // Span views into the owning ShardArena,
  std::vector<OutputPort> outputs;  // port-major ([port0 vc0.. | port1 ..])

  // Fast-path skip state maintained by Network: packets buffered in any
  // input FIFO of this router (their phits are derived from the FIFOs);
  // per-input-port bitmask of non-empty VCs
  // (contiguous, so the allocation scan stays in one cache line per router);
  // bitmask of output ports with an active transfer. routable_heads counts
  // the (port, vc) pairs whose head packet is present and not mid-transfer
  // — exactly the candidates the allocation scan could request for — so
  // do_allocation skips routers that are only streaming (a granted packet
  // occupies its head for packet_size cycles with nothing to route).
  // Network::note_enqueued and note_granted set them; restore replays both.
  u32 buffered_packets = 0;
  u32 routable_heads = 0;
  u32 parked_heads = 0;  ///< routable heads the allocation scan skips
  u32 buffer_capacity_phits = 0;  ///< sum of all input-VC capacities
  bool throttled = false;         ///< congestion-throttle latch (hysteresis)
  std::vector<u8> input_mask;  // [port] -> bit v set iff vcs[v] non-empty
  u64 active_out_mask = 0;

  // Parked heads (DESIGN.md §6): a head whose route() failed while no
  // output it could use was available sits out the allocation scan until
  // one of the outputs in its wake mask rises. `parked` and `wake` point
  // into the owning ShardArena: parked[port] has bit v set for a parked
  // head of VC v, whose wake mask is wake[port * stride + v] (the stride
  // is the Network's widest input port). wake_any is the OR of every
  // parked head's mask, and `risen` collects the outputs among those that
  // rose since the last scan; both are written only by the owning shard.
  // None of this is checkpointed: a network without parked heads routes
  // every head, which is always exact.
  u8* parked = nullptr;
  u64* wake = nullptr;
  u64 wake_any = 0;
  u64 risen = 0;

  // Allocator state: one VC-level arbiter per input port, one input-level
  // arbiter per output port.
  std::vector<LrsArbiter> input_arb;   // candidates = VC indices
  std::vector<LrsArbiter> output_arb;  // candidates = input port indices

  u32 num_ports() const noexcept { return static_cast<u32>(inputs.size()); }

  /// True when this router has any per-cycle work: a buffered packet to
  /// route or an output streaming a transfer. The Network's activity
  /// worklist contains exactly the routers for which this holds.
  bool has_activity() const noexcept {
    return buffered_packets > 0 || active_out_mask != 0;
  }
};

}  // namespace ofar
