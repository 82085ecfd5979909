// Wait-for graph over blocked packet heads (paper §IV-C deadlock argument).
//
// Nodes are input virtual channels, one per (router, port, vc). A directed
// edge u -> v means: the head packet buffered in u has been stalled for
// longer than the deadlock watchdog timeout, the output it structurally
// waits for is idle, every candidate VC of that output lacks a packet of
// credits, and v is one of those starved downstream input VCs. Such a head
// cannot move until some packet in v drains — the classic hold/wait edge.
//
// The stalled heads and the output each one structurally waits for come
// from stalled_heads(), the one walk that deadlock forensics (telemetry's
// `forensics` records) shares: the ring output for in-ring packets, the
// ejection port at the destination router, otherwise the minimal-path
// port. It is derived from the topology alone — the routing policy is
// never consulted, so the walk consumes no RNG draws and cannot perturb
// the simulation.
//
// The deadlock-freedom claim this checks (paper §III/§IV-C): adaptive
// traffic may form transient wait cycles through base VCs — those resolve
// because OFAR can always fall back to the escape ring — but a wait cycle
// lying ENTIRELY inside escape-ring VCs can never form, because bubble flow
// control keeps one packet of free space circulating in the ring. The
// auditor therefore flags exactly the all-ring cycles.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace ofar {
class Network;
}  // namespace ofar

namespace ofar::verify {

/// Deadlock-forensics caps of telemetry's `forensics` records: at most
/// kMaxForensicDumps records per run, each listing at most
/// kMaxForensicEdges stalled heads.
inline constexpr u32 kMaxForensicDumps = 4;
inline constexpr u32 kMaxForensicEdges = 64;

/// One head stalled past `config().deadlock_timeout` and the output it
/// structurally waits for.
struct StallEdge {
  RouterId router = 0;
  PortId in_port = 0;
  VcId in_vc = 0;
  PacketId packet = kInvalidPacket;
  NodeId src = 0;
  NodeId dst = 0;
  RouterId dst_router = 0;
  u64 age = 0;             ///< cycles since the packet's last grant
  bool in_ring = false;
  u32 arrived_phits = 0;   ///< phits of the head physically present
  PortId wait_port = kInvalidPort;  ///< ring, ejection or minimal output
  u32 wait_first_vc = 0;   ///< candidate VCs of wait_port:
  u32 wait_vcs = 0;        ///< [wait_first_vc, wait_first_vc + wait_vcs)
  bool wait_busy = false;           ///< that output is streaming a packet
  PacketId held_by = kInvalidPacket;  ///< the packet streaming through it
  u32 wait_credits = 0;    ///< most credits on any candidate VC
};

/// Every input-VC head that is not streaming and whose packet's last grant
/// is more than `config().deadlock_timeout` cycles old, in (router, port,
/// vc) order. Heads whose packet is not live or has a malformed header are
/// skipped: the auditor's packet-conservation check reports those.
std::vector<StallEdge> stalled_heads(const Network& net);

class WaitGraph {
 public:
  struct Node {
    RouterId router = 0;
    PortId port = 0;
    VcId vc = 0;
  };

  explicit WaitGraph(const Network& net);

  /// Extracts the hold/wait edges of the stalled_heads() of the current
  /// network state, so transient credit contention never shows up.
  void build();

  std::size_t num_edges() const noexcept { return num_edges_; }

  /// A wait cycle lying entirely inside escape-ring input VCs, in traversal
  /// order; empty when none exists (the healthy state, and always the case
  /// when the network has no escape ring).
  std::vector<Node> find_ring_cycle() const;

  /// "r12.p5v2 -> r13.p5v2 -> ..." for actionable violation reports.
  static std::string describe(const std::vector<Node>& cycle);

 private:
  u32 node_index(RouterId r, PortId p, VcId v) const noexcept;
  Node node_at(u32 index) const noexcept;
  bool is_ring(u32 index) const;

  const Network& net_;
  u32 ports_ = 0;
  u32 max_vcs_ = 0;                        // flat index stride per port
  std::vector<std::vector<u32>> adj_;      // per node, outgoing edges
  std::size_t num_edges_ = 0;
};

}  // namespace ofar::verify
