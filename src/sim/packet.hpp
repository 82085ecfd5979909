// Packet model.
//
// The simulator is phit-accurate but allocates at packet granularity
// (virtual cut-through with a batch allocator, paper §V). Every packet is
// SimConfig::packet_size phits, so a Packet stores no size. It carries
// the routing state the mechanisms need: hop counters for the hop-ordered VC
// discipline, the Valiant intermediate destination for VAL/PB/UGAL, and the
// OFAR misroute header flags + escape-ring state (paper §IV-A).
#pragma once

#include <limits>
#include <type_traits>

#include "common/types.hpp"

namespace ofar {

inline constexpr GroupId kInvalidGroup = std::numeric_limits<GroupId>::max();
inline constexpr RouterId kInvalidRouter = std::numeric_limits<RouterId>::max();

// Field order is cache-conscious, not thematic: the struct packs to
// exactly 64 bytes and alignas(64) pins it to a single cache line. The
// saturated allocation scan touches thousands of scattered head packets
// per cycle and prefetches one line each (see Network::do_allocation) —
// a straddling Packet would make half of those prefetches cover only part
// of the fields route() reads. The route-hot fields (addresses, Valiant
// state, misroute flags, ring state) lead; commit/delivery-only fields
// (timestamps, the trace sequence number) trail.
struct alignas(64) Packet {
  // ---- routing addresses ----
  NodeId src = 0;
  NodeId dst = 0;
  RouterId dst_router = 0;

  // ---- Valiant state (VAL / PB / UGAL) ----
  GroupId inter_group = kInvalidGroup;    ///< intermediate group, or invalid
  RouterId inter_router = kInvalidRouter; ///< intra-group Valiant target
  bool valiant_done = true;               ///< phase 1 (to intermediate) done

  // ---- OFAR misroute header flags (paper §IV-A) ----
  bool global_misrouted = false;  ///< the one global misroute was spent
  bool local_misrouted = false;   ///< local misroute spent in `flag_group`
  u8 zero_pad = 0;  ///< always 0: checkpoints copy a Packet's bytes
  GroupId flag_group = kInvalidGroup;  ///< group `local_misrouted` refers to

  // ---- escape-ring state (paper §IV-C) ----
  bool in_ring = false;
  bool ring_entered = false;  ///< ever entered the ring (distinct-packet stats)
  u8 ring_exits = 0;  ///< times the packet abandoned the ring (livelock cap)

  /// Selected by the hash-based trace sampler (trace_should_sample); read
  /// on the hot path (is this head's provenance wanted?).
  bool traced = false;

  // ---- hop bookkeeping (drives the ordered-VC discipline) ----
  u8 local_hops = 0;
  u8 global_hops = 0;
  u8 total_hops = 0;
  /// Local hops taken since entering the current group; resets on every
  /// global hop. The ordered-VC level of a local hop is
  /// global_hops + local_hops_in_group, which is strictly ascending along
  /// any l-g-l-g-l (or intra-group l-l) path — the property that makes the
  /// VC-ordered mechanisms deadlock-free.
  u8 local_hops_in_group = 0;

  u32 zero_pad2 = 0;  ///< always 0, like zero_pad

  // ---- cold fields (grant commit / delivery only) ----
  Cycle birth = 0;       ///< generation cycle (latency baseline, paper §VI-B)
  Cycle last_progress = 0;  ///< last grant cycle (deadlock watchdog)
  /// Injection sequence number: the value of Network::injected_total() when
  /// the packet was placed. Assigned in the serial injection phase, so it
  /// is identical at any sim_threads — the basis of deterministic sampling.
  u64 seq = 0;
};
static_assert(sizeof(Packet) == 64 && alignof(Packet) == 64,
              "a Packet must occupy exactly one cache line");
static_assert(std::has_unique_object_representations_v<Packet>,
              "a Packet must have no padding bytes");

}  // namespace ofar
