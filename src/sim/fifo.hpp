// Per-virtual-channel input FIFO with cut-through arrival tracking.
//
// Space accounting is done on the *upstream* side via credits (see
// OutputPort); this class only tracks which packets are queued and how many
// of their phits have physically arrived, so a transfer can start as soon as
// the head phit is present (virtual cut-through) and never underruns.
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
  /// One queued packet of the ring. `arrived`/`sent` are u16: the FIFO
  /// capacity is bounded to 0xFFFF phits at construction, so per-packet
  /// phit counts always fit (a packet never exceeds its FIFO's capacity).
  struct Entry {
    PacketId packet;
    u16 arrived;  // phits physically present or already forwarded
    u16 sent;     // phits forwarded downstream
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
  /// OFAR_DCHECK(num_packets() <= mask_) in the push paths backstops the
  /// bound in checked builds.
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
    OFAR_DCHECK(capacity_phits <= 0xFFFFu);  // Entry::arrived/sent are u16
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

  /// Phits physically stored right now (arrived and not yet forwarded).
  u32 stored_phits() const noexcept { return stored_; }

  PacketId head() const noexcept {
    OFAR_DCHECK(!empty());
    return entries_[head_ & mask_].packet;
  }
  /// Phits of the head packet available for forwarding.
  u32 head_arrived() const noexcept {
    OFAR_DCHECK(!empty());
    return entries_[head_ & mask_].arrived;
  }
  u32 head_sent() const noexcept {
    OFAR_DCHECK(!empty());
    return entries_[head_ & mask_].sent;
  }
  /// The i-th queued entry, counted from the head (i < num_packets()).
  const Entry& entry(u32 i) const noexcept {
    OFAR_DCHECK(i < num_packets());
    return entries_[(head_ + i) & mask_];
  }

  /// A new packet's head phit arrived (tail entry created).
  void push_packet(PacketId id) {
    OFAR_DCHECK(num_packets() <= mask_);
    entries_[tail_ & mask_] = {id, 1, 0};
    ++tail_;
    ++stored_;
  }
  /// A continuation phit of the most recent packet arrived.
  void push_phit() {
    OFAR_DCHECK(!empty());
    ++entries_[(tail_ - 1) & mask_].arrived;
    ++stored_;
  }
  /// Inserts a whole packet at once (injection queues: the node places the
  /// full packet; space was checked by the caller against this FIFO).
  void push_whole_packet(PacketId id, u32 size) {
    OFAR_DCHECK(num_packets() <= mask_);
    // capacity_ <= 0xFFFF (checked at construction), so a size that fits
    // the buffer also fits Entry::arrived — the cast below cannot truncate.
    OFAR_DCHECK(size <= capacity_);
    entries_[tail_ & mask_] = {id, static_cast<u16>(size), 0};
    ++tail_;
    stored_ += size;
  }

  /// One phit of the head packet leaves through the crossbar.
  /// Returns true when that was the tail phit (entry popped).
  bool pop_phit(u32 packet_size) {
    OFAR_DCHECK(!empty());
    Entry& e = entries_[head_ & mask_];
    OFAR_DCHECK(e.sent < e.arrived);  // cut-through never underruns
    ++e.sent;
    --stored_;
    if (e.sent == packet_size) {
      ++head_;
      return true;
    }
    return false;
  }

 private:
  friend class CheckpointIO;  // serializes head_/tail_/stored_ + live entries

  u32 capacity_ = 0;
  u32 stored_ = 0;
  // head_/tail_ are deliberately u32 despite counting every packet that ever
  // transited the FIFO: all uses are either the difference tail_ - head_
  // (bounded by the ring size) or masked indexing, both of which are exact
  // under u32 wraparound. A u64 here would double the control-word footprint
  // of every VC at h=16 scale for no behavioural difference.
  u32 head_ = 0;  // monotonically increasing; index via & mask_
  u32 tail_ = 0;
  u32 mask_ = 0;
  Entry* entries_ = nullptr;  // ring: an arena slice
};

static_assert(sizeof(VcFifo::Entry) == 8,
              "ring slots are the largest per-VC allocation at scale; "
              "keep Entry at one machine word");
static_assert(sizeof(VcFifo) == 32,
              "one control block per simulated VC: five u32 words and the "
              "ring pointer");

}  // namespace ofar
