// Flat per-shard state arenas and the memoized credit view in front of them.
//
// The saturated cycle kernel spends almost all of its time walking per-VC
// FIFO/credit state (see DESIGN.md §10 "Memory layout"). This module packs
// that hot working set into per-shard SoA arenas:
//
//   * ShardArena — chunked stable-address pools per shard for FIFO control
//     words, FIFO ring slots, head-busy flags, credit counters and their
//     ramp ends. Routers hold Span views into the chunks, so a shard's
//     allocation scan walks a few flat arrays instead of hopping between
//     per-router heap vectors, and routers can be bound lazily on first
//     touch (untouched routers cost nothing at h=16 scale).
//   * CreditView — per-shard memoized credit/occupancy snapshot serving the
//     routing policies' base-VC queries (base_available / base_occupancy /
//     best_base_vc) and the escape ring's (ring_vc) from one cached pass
//     per (router, cycle), with every credit ramp evaluated at that cycle.
//
// CreditView memoization is exact, not approximate: within one router's
// request-collection scan no credit counter or output-busy flag can change
// (grants are decided by the allocator and committed only after the scan),
// so every route() call of that scan would recompute identical values.
// Digests are therefore bit-identical with and without the cache.
#pragma once

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/phase.hpp"
#include "common/span.hpp"
#include "common/types.hpp"
#include "sim/fifo.hpp"
#include "sim/router.hpp"

namespace ofar {

class Network;

/// Chunked stable-address pool: allocations are carved contiguously out of
/// large chunks and the chunks themselves never move or shrink, so a Span
/// handed out by alloc() stays valid for the pool's lifetime. This is what
/// lets router state be bound *lazily* (on first touch) instead of demanding
/// an exact up-front reserve: the old exact-reserve arena would dangle every
/// bound Span on growth. Elements are value-initialised (zeroed PODs).
template <typename T>
class ChunkPool {
 public:
  /// Chunks for the POD payloads start at 4 KiB and double up to 64 KiB,
  /// so a shard that binds a few routers zeroes a few KiB per pool rather
  /// than 64; a request larger than the next chunk gets a dedicated chunk
  /// of its own size.
  static constexpr std::size_t kFirstChunkBytes = 4 * 1024;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  T* alloc(std::size_t n) {
    if (used_ + n > cap_) {
      const std::size_t def =
          next_bytes_ / sizeof(T) == 0 ? 1 : next_bytes_ / sizeof(T);
      const std::size_t sz = n > def ? n : def;
      chunks_.emplace_back(new T[sz]());
      used_ = 0;
      cap_ = sz;
      if (next_bytes_ < kChunkBytes) next_bytes_ *= 2;
    }
    T* p = chunks_.back().get() + used_;
    used_ += n;
    total_ += n;
    return p;
  }

  /// Elements handed out so far (allocation accounting, tests).
  std::size_t size() const noexcept { return total_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t used_ = 0;   // into the current (last) chunk
  std::size_t cap_ = 0;    // of the current chunk
  std::size_t total_ = 0;
  std::size_t next_bytes_ = kFirstChunkBytes;
};

// Shard-local: one arena per ShardState; only the owning shard touches the
// backing storage during parallel phases (via the Router spans bound here).
// Backed by ChunkPools, so bind_* may be called at any time — including from
// the owning shard's parallel delivery phase when a router is built lazily
// on its first event — without invalidating previously bound Spans.
struct OFAR_SHARD_LOCAL ShardArena {
  ChunkPool<VcFifo> fifos;              ///< control blocks, router/port/VC-major
  ChunkPool<VcFifo::Entry> fifo_slots;  ///< ring storage backing `fifos`
  ChunkPool<u8> head_busy;              ///< parallel to `fifos`
  ChunkPool<u32> credits;               ///< output credit counters
  ChunkPool<u32> credit_caps;           ///< parallel to `credits`
  ChunkPool<u32> ramp_ends;             ///< parallel to `credits`
  ChunkPool<u8> parked;                 ///< per input port: parked VCs
  ChunkPool<u64> wake;                  ///< per (input port, VC) slot

  /// Carves `count` FIFOs of `capacity` phits (control block + a
  /// `slots_per_vc`-entry ring each) and binds `r.inputs[port]`'s views
  /// onto them.
  void bind_inputs(Router& r, PortId port, u32 count, u32 capacity,
                   u32 slots_per_vc) {
    VcFifo* f = fifos.alloc(count);
    u8* hb = head_busy.alloc(count);
    for (u32 v = 0; v < count; ++v) {
      VcFifo::Entry* slots = fifo_slots.alloc(slots_per_vc);
      f[v] = VcFifo(capacity, slots, slots_per_vc);
      hb[v] = 0;
    }
    r.inputs[port].vcs = Span<VcFifo>(f, count);
    r.inputs[port].head_busy = Span<u8>(hb, count);
  }

  /// Carves `count` credit counters initialised to `value`, with no ramp
  /// on its way, and binds `r.outputs[port]`'s views onto them.
  void bind_credits(Router& r, PortId port, u32 count, u32 value) {
    u32* c = credits.alloc(count);
    u32* cc = credit_caps.alloc(count);
    for (u32 v = 0; v < count; ++v) {
      c[v] = value;
      cc[v] = value;
    }
    r.outputs[port].credits = Span<u32>(c, count);
    r.outputs[port].credit_cap = Span<u32>(cc, count);
    r.outputs[port].ramp_end = Span<u32>(ramp_ends.alloc(count), count);
  }

  /// Carves `r`'s park state, no head parked: one parked-VC byte per input
  /// port and `stride` wake masks per port.
  void bind_park(Router& r, u32 ports, u32 stride) {
    r.parked = parked.alloc(ports);
    r.wake = wake.alloc(std::size_t{ports} * stride);
  }
};

/// Memoized per-(router, cycle) snapshot of the base-VC credit queries the
/// routing policies issue (base_available / base_occupancy / best_base_vc)
/// and of the router's escape-ring output (ring_vc). bind() is O(1) — an
/// epoch bump — and each output port is summarised at most once per bind
/// in a single pass over its credits, every ramp evaluated at the bind
/// cycle.
//
// Shard-local: each ShardState owns one view; route() calls of the owning
// shard's allocation scan are the only readers/writers.
class OFAR_SHARD_LOCAL CreditView {
 public:
  /// Captures the topology-invariant shape (per-port base-VC counts, packet
  /// size) and `net` itself, whose escape ring and state cycle the view
  /// reads later. Call once after Network construction; defined in
  /// flat_state.cpp.
  void init(const Network& net);

  /// Rebinds the view to `r` at cycle `now` and invalidates all memoized
  /// snapshots.
  void bind(const Router& r, u32 now) noexcept {
    r_ = &r;
    now_ = now;
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stamps from 4G binds ago could collide
      for (PortSnap& s : snaps_) {
        s.stamp = 0;
        s.occ_stamp = 0;
        s.memo_stamp = 0;
      }
      mask_stamp_ = 0;
      ring_stamp_ = 0;
      epoch_ = 1;
    }
  }
  /// Rebinds the view to `r` at the cycle the network's state reflects
  /// (Network::state_cycle); defined in flat_state.cpp.
  void bind(const Router& r) noexcept;

  const Router& router() const noexcept { return *r_; }
  /// The cycle the view reads credits at.
  u32 now() const noexcept { return now_; }
  /// Phits per packet: the credits a VC needs to take a whole packet.
  u32 packet_size() const noexcept { return packet_size_; }

  /// True when `port` is wired, transfer-idle, and some base VC can hold a
  /// whole packet.
  bool base_available(PortId port) noexcept {
    return snap(port).avail != 0;
  }

  /// Mirrors Network::base_occupancy over the port's base VC range. The
  /// division is deferred to first query and memoized: refresh() only sums
  /// integers, so ports summarised for the availability mask but never
  /// occupancy-checked (the common case) pay no floating-point work.
  double base_occupancy(PortId port) noexcept {
    PortSnap& s = snaps_[port];
    if (s.stamp != epoch_) refresh(port, s);
    if (s.occ_stamp != epoch_) {
      s.occ = s.cap == 0 ? 1.0
                         : 1.0 - static_cast<double>(s.free) /
                                     static_cast<double>(s.cap);
      s.occ_stamp = epoch_;
    }
    return s.occ;
  }

  /// The base VC of `port` with the most credits among those with room for
  /// a whole packet; false if none. Only meaningful on ports with a base
  /// range.
  bool best_base_vc(PortId port, VcId& vc) noexcept {
    const PortSnap& s = snap(port);
    vc = s.best_vc;
    return s.has_vc != 0;
  }

  /// True when no base VC can hold a whole packet regardless of busy state
  /// (the OFAR starvation test that gates escape-ring entry).
  bool base_starved(PortId port) noexcept {
    return snap(port).has_vc == 0;
  }

  /// Bitmask over ports with base_available() — bit p set iff port p could
  /// accept a whole packet right now. Computed at most once per bind (one
  /// refresh pass over every port); OFAR's misroute candidate collection
  /// iterates its set bits instead of probing each port.
  u64 avail_mask() noexcept {
    if (mask_stamp_ != epoch_) {
      u64 m = 0;
      const u32 ports = static_cast<u32>(snaps_.size());
      for (PortId p = 0; p < ports; ++p)
        if (snap(p).avail != 0) m |= u64{1} << p;
      avail_mask_ = m;
      mask_stamp_ = epoch_;
    }
    return avail_mask_;
  }

  /// The router's escape-ring output. Call after ring_vc.
  PortId ring_port() const noexcept { return ring_port_; }

  /// True when the ring output is wired and idle and its best escape VC
  /// (the first with the most credits, returned in `vc`) has at least
  /// `need` credits: a packet for a ride, a packet plus the bubble for an
  /// entry. The port and its best VC are derived once per bind.
  bool ring_vc(u32 need, VcId& vc) noexcept {
    if (ring_stamp_ != epoch_) refresh_ring();
    vc = ring_best_vc_;
    return ring_free_ >= need;
  }

  /// One u64 per port that the routing policy derives from this snapshot
  /// alone, memoized for the bind (OFAR: a minimal port's misroute
  /// candidates). `fill` runs at most once per port per bind; later calls
  /// of the same bind return its value. Exact for the reason the snapshot
  /// is: nothing `fill` may read changes within one scan.
  template <typename Fill>
  u64 memo(PortId port, Fill&& fill) {
    OFAR_DCHECK(port < snaps_.size());
    PortSnap& s = snaps_[port];
    if (s.memo_stamp != epoch_) {
      s.memo = fill();
      s.memo_stamp = epoch_;
    }
    return s.memo;
  }

 private:
  struct PortSnap {
    double occ = 1.0;  ///< memoized division, valid while occ_stamp == epoch
    u64 memo = 0;      ///< policy memo, valid while memo_stamp == epoch
    u32 free = 0;      ///< summed base-VC credits (occupancy numerator)
    u32 cap = 0;       ///< summed base-VC capacity (occupancy denominator)
    u32 stamp = 0;
    u32 occ_stamp = 0;
    u32 memo_stamp = 0;
    VcId best_vc = 0;
    u8 has_vc = 0;
    u8 avail = 0;
  };

  const PortSnap& snap(PortId port) noexcept {
    OFAR_DCHECK(port < snaps_.size());
    PortSnap& s = snaps_[port];
    if (s.stamp != epoch_) refresh(port, s);
    return s;
  }

  // One pass over the port's base credit span, replicating the arithmetic
  // of OutputPort::best_vc / occupancy exactly (see class comment: results
  // must be bit-identical to the unmemoized queries).
  void refresh(PortId port, PortSnap& s) noexcept {
    s.stamp = epoch_;
    const OutputPort& out = r_->outputs[port];
    const u32 count = base_counts_[port];
    if (count == 0 || !out.wired()) {
      s.occ = 1.0;
      s.occ_stamp = epoch_;
      s.best_vc = 0;
      s.has_vc = 0;
      s.avail = 0;
      return;
    }
    u32 free = 0, cap = 0;
    u32 best = 0;
    bool found = false;
    VcId best_vc = 0;
    for (u32 v = 0; v < count; ++v) {
      const u32 c = out.credit(v, now_);
      free += c;
      cap += out.credit_cap[v];
      if (c >= packet_size_ && (!found || c > best)) {
        best = c;
        best_vc = static_cast<VcId>(v);
        found = true;
      }
    }
    s.free = free;
    s.cap = cap;
    s.occ_stamp = epoch_ - 1;  // division deferred to base_occupancy()
    s.best_vc = best_vc;
    s.has_vc = found ? 1 : 0;
    s.avail = (found && !out.busy()) ? 1 : 0;
  }

  /// The ring output's port and its best escape VC; ring_free_ holds that
  /// VC's credits, 0 when the port is unwired or streams.
  void refresh_ring() noexcept;

  const Network* net_ = nullptr;
  const Router* r_ = nullptr;
  u32 now_ = 0;
  u32 epoch_ = 0;
  u32 mask_stamp_ = 0;
  u64 avail_mask_ = 0;
  u32 packet_size_ = 0;
  u32 ring_stamp_ = 0;
  PortId ring_port_ = kInvalidPort;
  VcId ring_best_vc_ = 0;
  u32 ring_free_ = 0;
  std::vector<u32> base_counts_;  ///< [port] -> base VC count (class-invariant)
  std::vector<PortSnap> snaps_;   ///< [port] -> memoized summary
};

}  // namespace ofar
