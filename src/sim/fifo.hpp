// Per-virtual-channel input FIFO with cut-through arrival tracking.
//
// Space accounting is done on the *upstream* side via credits (see
// OutputPort); this class only tracks which packets are queued and when
// their phits arrive, so a transfer can start as soon as the head phit is
// present (virtual cut-through) and never underruns.
//
// Nothing here moves per phit. A packet's phits cross a link one per
// cycle, so an entry records the cycle its head phit arrived and derives
// how many phits it holds at any later cycle; the streaming head's sent
// phits follow from the cycle its last phit leaves. Cycle stamps are u32
// and wrap: every difference is taken modulo 2^32, which is exact while a
// packet waits less than 2^32 cycles in one FIFO (DESIGN.md §14).
//
// Storage is a flat power-of-two ring buffer (no heap traffic per packet):
// this FIFO sits on the per-cycle hot path of every router. The ring is a
// slice the caller hands in and keeps alive: in the simulator, the owning
// shard's arena (sim/flat_state.hpp).
#pragma once

#include "common/check.hpp"
#include "common/phase.hpp"
#include "common/types.hpp"

namespace ofar {

class CheckpointIO;

// Shard-local: fifos live inside Router input/output units; the owning
// shard is the only writer during parallel phases (pushes from the
// serial delivery commit target the destination router's shard state).
class OFAR_SHARD_LOCAL VcFifo {
 public:
  /// One queued packet of the ring: its phits arrive one per cycle from
  /// `arrive`, the cycle its head phit arrived.
  struct Entry {
    PacketId packet;
    u32 arrive;
  };

  /// Ring slots for a FIFO of `capacity_phits`, rounded up to a power of
  /// two for cheap masking. Packet-granularity sizing: with virtual
  /// cut-through credit accounting every resident entry except the
  /// (possibly partially drained) head holds a whole `min_packet_phits`-phit
  /// packet's worth of upstream credits, so at most floor((capacity-1)/S) +
  /// 1 entries can coexist. At the paper's S=8 this shrinks the 256-phit
  /// global FIFO ring from 512 slots to 32 — the dominant per-router
  /// allocation at h=16 scale. A mixed-size workload must pass its
  /// *smallest* packet size (S=1 fits single-phit packets);
  /// OFAR_DCHECK(num_packets() <= mask_) in push() backstops the bound in
  /// checked builds.
  static u32 slots_for(u32 capacity_phits, u32 min_packet_phits) noexcept {
    const u32 s = min_packet_phits == 0 ? 1 : min_packet_phits;
    const u32 entries =
        capacity_phits == 0 ? 1 : (capacity_phits - 1) / s + 1;
    u32 slots = 2;
    while (slots < entries) slots <<= 1;
    return slots;
  }

  VcFifo() = default;

  /// `slots` must point at `slot_count` zeroed entries (a power of two, see
  /// slots_for) that outlive this FIFO; the shard arena guarantees both.
  VcFifo(u32 capacity_phits, Entry* slots, u32 slot_count)
      : capacity_(capacity_phits), mask_(slot_count - 1), entries_(slots) {
    OFAR_DCHECK(capacity_phits <= 0xFFFFu);  // packet_phits() is a u16
    OFAR_DCHECK(slot_count >= 2 && (slot_count & (slot_count - 1)) == 0);
  }

  VcFifo(VcFifo&&) = default;
  VcFifo& operator=(VcFifo&&) = default;
  // No copies: a copy would share the ring it indexes into.
  VcFifo(const VcFifo&) = delete;
  VcFifo& operator=(const VcFifo&) = delete;

  u32 capacity() const noexcept { return capacity_; }
  /// Ring storage this FIFO indexes into (its arena slice).
  const Entry* slots() const noexcept { return entries_; }
  bool empty() const noexcept { return head_ == tail_; }
  u32 num_packets() const noexcept { return tail_ - head_; }
  /// Phits of each queued packet (every packet of a FIFO has one size).
  u32 packet_phits() const noexcept { return size_; }
  /// Cycle the streaming head's last phit leaves (meaningful only while
  /// the head streams, see start_send).
  u32 send_end() const noexcept { return send_end_; }

  PacketId head() const noexcept {
    OFAR_DCHECK(!empty());
    return entries_[head_ & mask_].packet;
  }
  /// The i-th queued entry, counted from the head (i < num_packets()).
  const Entry& entry(u32 i) const noexcept {
    OFAR_DCHECK(i < num_packets());
    return entries_[(head_ + i) & mask_];
  }

  /// Phits of `e` present by cycle `now`, which is not before e.arrive.
  u32 arrived(const Entry& e, u32 now) const noexcept {
    const u32 age = now - e.arrive;
    return age < size_ ? age + 1 : size_;
  }
  /// Phits the streaming head has sent by cycle `now`, which lies between
  /// its grant and the cycle its last phit leaves.
  u32 head_sent(u32 now) const noexcept {
    const u32 left = send_end_ - now;
    return left < size_ ? size_ - left : 0;
  }
  /// Phits stored at cycle `now`: arrived and not sent. Only the newest
  /// entry can still be arriving: a link delivers one packet whole before
  /// the next one's head.
  u32 stored_phits(u32 now, bool head_streams) const noexcept {
    if (empty()) return 0;
    const u32 n = num_packets();
    const u32 phits = (n - 1) * size_ + arrived(entry(n - 1), now);
    return head_streams ? phits - head_sent(now) : phits;
  }

  /// A `size`-phit packet whose head phit arrives at cycle `arrive`; the
  /// rest of it follows one phit per cycle.
  void push(PacketId id, u32 size, u32 arrive) {
    OFAR_DCHECK(num_packets() <= mask_);
    OFAR_DCHECK(size <= capacity_);
    OFAR_DCHECK(empty() || size == size_);
    size_ = static_cast<u16>(size);  // capacity_ <= 0xFFFF, checked above
    entries_[tail_ & mask_] = {id, arrive};
    ++tail_;
  }
  /// Inserts a whole packet at cycle `now` (injection queues: the node
  /// places the full packet; space was checked by the caller against this
  /// FIFO). A FIFO outside a running network is at cycle 0.
  void push_whole_packet(PacketId id, u32 size, u32 now = 0) {
    push(id, size, now - size + 1);
  }

  /// The head was granted: it streams one phit per cycle, the last at
  /// cycle `send_end`.
  void start_send(u32 send_end) noexcept {
    OFAR_DCHECK(!empty());
    send_end_ = send_end;
  }
  /// The head's last phit left: the entry goes.
  void pop() noexcept {
    OFAR_DCHECK(!empty());
    ++head_;
  }

 private:
  friend class CheckpointIO;  // serializes head_/tail_/send_end_ + entries

  u32 capacity_ = 0;
  // head_/tail_ are deliberately u32 despite counting every packet that ever
  // transited the FIFO: all uses are either the difference tail_ - head_
  // (bounded by the ring size) or masked indexing, both of which are exact
  // under u32 wraparound. A u64 here would double the control-word footprint
  // of every VC at h=16 scale for no behavioural difference.
  u32 head_ = 0;  // monotonically increasing; index via & mask_
  u32 tail_ = 0;
  u32 mask_ = 0;
  u32 send_end_ = 0;
  u16 size_ = 0;
  Entry* entries_ = nullptr;  // ring: an arena slice
};

static_assert(sizeof(VcFifo::Entry) == 8,
              "ring slots are the largest per-VC allocation at scale; "
              "keep Entry at one machine word");
static_assert(sizeof(VcFifo) == 32,
              "one control block per simulated VC: five u32 words, the "
              "packet size and the ring pointer");

}  // namespace ofar
