// Canonical dragonfly topology (Kim et al., ISCA'08) with the *consecutive*
// ("absolute") global wiring arrangement the paper assumes in §III.
//
// Parameters follow the paper: h global links per router, p = h nodes per
// router, a = 2h routers per group, and at most a*h + 1 groups. Groups are
// complete graphs of local links; each pair of groups is joined by exactly
// one global link.
//
// Global wiring: group g owns a*h outgoing global "slots". Slot d of group g
// connects to group (g + d + 1) mod G and is carried on router floor(d/h),
// global port d mod h. The matching slot on the far side is G - 2 - d. This
// consecutive arrangement is what makes ADV+h pathological: the h links
// entering a transit group from one source group all land on one router,
// while the h links toward the destination group all leave from the next
// router, funnelling all misrouted traffic through a single local link.
#pragma once

#include <string>

#include "common/check.hpp"
#include "common/divisor.hpp"
#include "common/types.hpp"

namespace ofar {

/// Classification of a router port (same layout on input and output sides).
enum class PortClass : u8 {
  kNode,    ///< to/from a processing node (injection on input, ejection out)
  kLocal,   ///< intra-group link
  kGlobal,  ///< inter-group link
  kRing,    ///< dedicated physical escape-ring port
};

const char* to_string(PortClass c) noexcept;

class Dragonfly {
 public:
  /// Builds a dragonfly with the given h. `groups == 0` selects the maximum
  /// size (a*h + 1 groups); smaller values trim the group count (useful for
  /// tests), leaving high global slots unwired.
  /// `physical_ring` reserves one extra ring port per router.
  Dragonfly(u32 h, u32 groups = 0, bool physical_ring = false);

  // ---- sizes ----
  u32 h() const noexcept { return h_; }
  u32 p() const noexcept { return h_; }
  u32 a() const noexcept { return 2 * h_; }
  u32 groups() const noexcept { return groups_; }
  u32 routers() const noexcept { return groups_ * a(); }
  u32 nodes() const noexcept { return routers() * p(); }
  u32 max_groups() const noexcept { return a() * h_ + 1; }

  /// Entity-count trait for id sizing. Everything is computed in u64 so
  /// callers can validate a requested topology against the compact 32-bit
  /// id types (RouterId/NodeId/ChannelId/PortId widths) *before* any
  /// truncating arithmetic runs — the basis of the scale checks in the
  /// Network constructor. h=16 (513 groups, 262,656 endpoints, 64 ports
  /// with the physical ring) is the largest balanced dragonfly whose port
  /// count fits the 64-bit output-activity masks; h=22 would need 88 ports
  /// per router and is out of scope for the current kernel.
  struct Limits {
    u64 routers = 0;
    u64 nodes = 0;
    u64 ports = 0;     ///< ports per router
    u64 channels = 0;  ///< dense channel-id bound: routers * ports
    u64 max_vcs = 0;   ///< most VCs any single input port may carry
  };
  Limits limits(u32 max_vcs_per_port) const noexcept {
    Limits l;
    l.routers = u64{groups_} * a();
    l.nodes = l.routers * p();
    l.ports = ports_per_router();
    l.channels = l.routers * l.ports;
    l.max_vcs = max_vcs_per_port;
    return l;
  }

  /// Ports per router: p node + (a-1) local + h global (+1 physical ring).
  u32 ports_per_router() const noexcept {
    return p() + (a() - 1) + h_ + (physical_ring_ ? 1u : 0u);
  }

  // ---- coordinates ----
  // Every divisor is fixed at construction, so the helpers divide by
  // multiply-shift (common/divisor.hpp): they run for every head and event.
  GroupId group_of(RouterId r) const noexcept { return a_div_.div(r); }
  u32 local_of(RouterId r) const noexcept { return a_div_.mod(r); }
  RouterId router_at(GroupId g, u32 local) const noexcept {
    OFAR_DCHECK(g < groups_ && local < a());
    return g * a() + local;
  }
  RouterId router_of_node(NodeId n) const noexcept { return h_div_.div(n); }
  u32 node_slot(NodeId n) const noexcept { return h_div_.mod(n); }
  NodeId node_at(RouterId r, u32 slot) const noexcept {
    OFAR_DCHECK(slot < p());
    return r * p() + slot;
  }
  GroupId group_of_node(NodeId n) const noexcept {
    return group_of(router_of_node(n));
  }

  // ---- port layout ----
  PortId node_port(u32 slot) const noexcept {
    OFAR_DCHECK(slot < p());
    return static_cast<PortId>(slot);
  }
  PortId first_local_port() const noexcept {
    return static_cast<PortId>(p());
  }
  PortId first_global_port() const noexcept {
    return static_cast<PortId>(p() + a() - 1);
  }
  PortId ring_port() const noexcept {
    OFAR_DCHECK(physical_ring_);
    return static_cast<PortId>(p() + a() - 1 + h_);
  }
  PortClass port_class(PortId port) const noexcept;
  /// Bit p set for every local (global) port p of a router.
  u64 local_port_mask() const noexcept { return local_mask_; }
  u64 global_port_mask() const noexcept { return global_mask_; }

  /// Local port on `from_local` leading to `to_local` (same group).
  PortId local_port(u32 from_local, u32 to_local) const noexcept {
    OFAR_DCHECK(from_local != to_local && from_local < a() && to_local < a());
    const u32 k = to_local < from_local ? to_local : to_local - 1;
    return static_cast<PortId>(p() + k);
  }
  /// Peer local index reached through local port `port` from `from_local`.
  u32 local_peer(u32 from_local, PortId port) const noexcept {
    const u32 k = static_cast<u32>(port) - p();
    OFAR_DCHECK(k < a() - 1);
    return k < from_local ? k : k + 1;
  }

  // ---- global wiring ----
  /// Outgoing slot of group `from` toward group `to` (d in [0, groups-2]).
  /// Both groups are below groups(), so one conditional subtraction is
  /// the whole modulo.
  u32 global_slot(GroupId from, GroupId to) const noexcept {
    OFAR_DCHECK(from != to && from < groups_ && to < groups_);
    const u32 d = to + groups_ - from - 1;
    return d >= groups_ ? d - groups_ : d;
  }
  /// Local index of the router carrying global slot d.
  u32 slot_carrier(u32 slot) const noexcept {
    OFAR_DCHECK(slot < a() * h_);
    return h_div_.div(slot);
  }
  /// Global port index (within the router) carrying slot d.
  PortId slot_port(u32 slot) const noexcept {
    return static_cast<PortId>(first_global_port() + h_div_.mod(slot));
  }
  /// Slot carried by global port `port` of a router with local index `local`.
  u32 port_slot(u32 local, PortId port) const noexcept {
    const u32 j = static_cast<u32>(port) - first_global_port();
    OFAR_DCHECK(j < h_);
    return local * h_ + j;
  }
  /// True when slot d of any group is wired (only trimmed topologies
  /// leave slots unwired).
  bool slot_wired(u32 slot) const noexcept { return slot < groups_ - 1; }
  /// Destination group of slot d from group `from`.
  GroupId slot_target(GroupId from, u32 slot) const noexcept {
    OFAR_DCHECK(from < groups_ && slot_wired(slot));
    const u32 g = from + slot + 1;
    return g >= groups_ ? g - groups_ : g;
  }
  /// The far side of slot d is slot (groups-2-d) of the target group.
  u32 peer_slot(u32 slot) const noexcept {
    OFAR_DCHECK(slot_wired(slot));
    return groups_ - 2 - slot;
  }

  /// Router of group `from` that carries the single global link to `to`.
  RouterId carrier_router(GroupId from, GroupId to) const noexcept {
    return router_at(from, slot_carrier(global_slot(from, to)));
  }
  /// The global port on `carrier_router(from,to)` leading to group `to`.
  PortId carrier_port(GroupId from, GroupId to) const noexcept {
    return slot_port(global_slot(from, to));
  }

  /// Router + port reached by leaving router r through global port `port`.
  struct GlobalEndpoint {
    RouterId router;
    PortId port;
  };
  GlobalEndpoint global_peer(RouterId r, PortId port) const noexcept {
    const GroupId g = group_of(r);
    const u32 d = port_slot(local_of(r), port);
    OFAR_DCHECK(slot_wired(d));
    const GroupId tg = slot_target(g, d);
    const u32 back = peer_slot(d);
    return {router_at(tg, slot_carrier(back)), slot_port(back)};
  }
  /// True when router r's global port `port` is wired (trimmed topologies).
  bool global_port_wired(RouterId r, PortId port) const noexcept {
    return slot_wired(port_slot(local_of(r), port));
  }

  // ---- routing helpers ----
  /// Next port on the minimal path from router `cur` toward router `dst`
  /// (which must differ from `cur`): local hop to the destination router if
  /// same group, else toward/through the global link to the target group.
  PortId min_next_port(RouterId cur, RouterId dst) const noexcept;

  /// Number of router-to-router hops on the minimal path (0..3).
  u32 min_hops(RouterId from, RouterId to) const noexcept;

  /// Human-readable description (for logs and error messages).
  std::string describe() const;

 private:
  u32 h_;
  u32 groups_;
  bool physical_ring_;
  Divisor h_div_;  ///< h, which is also p (nodes per router)
  Divisor a_div_;  ///< a = 2h routers per group
  u64 local_mask_ = 0;
  u64 global_mask_ = 0;
};

}  // namespace ofar
