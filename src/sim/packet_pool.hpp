// Slab allocator for live packets.
//
// Packets are referenced by dense PacketId everywhere (FIFO entries, channel
// events, transfers), so allocation must be O(1) and ids stable for the
// packet lifetime. A free list over a growing vector provides both.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/packet.hpp"

namespace ofar {

class CheckpointIO;
namespace verify { class InvariantAuditor; }

class PacketPool {
 public:
  PacketPool() = default;

  /// Allocates a default-initialised packet; returns its id.
  PacketId create();

  /// Releases a packet id for reuse. The slot contents become invalid.
  void destroy(PacketId id);

  Packet& get(PacketId id) {
    OFAR_DCHECK(is_live(id));
    return slots_[id];
  }
  const Packet& get(PacketId id) const {
    OFAR_DCHECK(is_live(id));
    return slots_[id];
  }

  std::size_t live_count() const noexcept { return live_; }
  bool is_live(PacketId id) const noexcept {
    return id < slots_.size() && live_bits_[id];
  }

  /// Invokes fn(id, packet) for every live packet (watchdog scans).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (PacketId id = 0; id < slots_.size(); ++id)
      if (live_bits_[id]) fn(id, slots_[id]);
  }

 private:
  // Serializes slots_/live_bits_/free_list_ verbatim: the LIFO free-list
  // order decides which id the next create() hands out, so a restart must
  // reproduce it exactly for packet ids (and everything keyed by them) to
  // stay bit-identical.
  friend class CheckpointIO;
  friend class verify::InvariantAuditor;  // audits the free list

  std::vector<Packet> slots_;
  std::vector<bool> live_bits_;
  std::vector<PacketId> free_list_;
  std::size_t live_ = 0;
};

inline PacketId PacketPool::create() {
  PacketId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    slots_[id] = Packet{};
    live_bits_[id] = true;
  } else {
    id = static_cast<PacketId>(slots_.size());
    slots_.emplace_back();
    live_bits_.push_back(true);
  }
  ++live_;
  return id;
}

inline void PacketPool::destroy(PacketId id) {
  OFAR_DCHECK(is_live(id));
  live_bits_[id] = false;
  free_list_.push_back(id);
  --live_;
}

}  // namespace ofar
