// Unidirectional channel (link) descriptors.
//
// Channels carry one phit per cycle with a fixed wire latency; phit and
// credit propagation are executed by the Network's event wheels, so Channel
// itself is plain data. Channel ids are *dense*: id = src_router * ports +
// src_port, so a descriptor is pure arithmetic over the topology and the
// Network resolves one on the fly (implicit wiring) instead of keeping a
// materialized table. Utilisation lives in Network::channel_phits_ (flat,
// indexed by the same dense id).
#pragma once

#include "common/types.hpp"

namespace ofar {

enum class ChannelClass : u8 {
  kLocal,       ///< intra-group link of the canonical dragonfly
  kGlobal,      ///< inter-group link of the canonical dragonfly
  kRingLocal,   ///< physical escape-ring wire inside a group
  kRingGlobal,  ///< physical escape-ring wire between groups
  kEjection,    ///< router -> processing-node link
};

const char* to_string(ChannelClass c) noexcept;

// Plain value type, resolved arithmetically per query: a descriptor is
// immutable data — the shard-ownership story lives with the flat
// utilisation counters in Network.
struct Channel {
  RouterId src_router = 0;
  PortId src_port = 0;
  // Destination: a router input port, or a node for ejection channels.
  RouterId dst_router = 0;
  PortId dst_port = 0;
  NodeId dst_node = 0;  ///< valid only when cls == kEjection
  u32 latency = 1;
  ChannelClass cls = ChannelClass::kLocal;

  bool is_ejection() const noexcept { return cls == ChannelClass::kEjection; }
};

inline const char* to_string(ChannelClass c) noexcept {
  switch (c) {
    case ChannelClass::kLocal: return "local";
    case ChannelClass::kGlobal: return "global";
    case ChannelClass::kRingLocal: return "ring-local";
    case ChannelClass::kRingGlobal: return "ring-global";
    case ChannelClass::kEjection: return "ejection";
  }
  return "?";
}

}  // namespace ofar
