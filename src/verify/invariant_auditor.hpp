// Runtime model checking of the simulator's structural invariants.
//
// OFAR's correctness argument (paper §III-§IV) rests on properties the
// optimised cycle kernel must preserve exactly: credit-counted virtual
// cut-through flow control, atomic packet advance, a deadlock-free escape
// ring under bubble flow control, and — since the PR 1 kernel rewrite —
// activity worklists that are sound and complete with respect to a full
// scan. The InvariantAuditor re-derives each property from the live network
// state and reports every violation with enough context to act on.
//
// The auditor is read-only and RNG-free: running it (at any interval)
// changes no simulation outcome and leaves per-seed golden digests
// bit-identical. It is O(network) per run, so it is opt-in — enabled with
// Network::enable_audit(interval) or the bench drivers' --audit[-interval]
// flags — and intended for CI workloads and bug hunts, not production
// sweeps. On a violation the periodic driver prints the report and aborts;
// tests call the individual checks and inspect the report instead.
//
// It is also the only judge of a restored checkpoint (core/checkpoint.hpp):
// CheckpointIO::restore bounds-checks what it reads, then rejects any state
// run_all() does not pass. The auditor therefore reads untrusted state and
// never indexes with a value it has not range-checked first.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/fifo.hpp"

namespace ofar {
class Network;
struct Packet;
}  // namespace ofar

namespace ofar::verify {

enum class Invariant : u8 {
  kCreditConservation,  ///< per (channel, VC): credits + ramps + stored
                        ///< + in-flight + reserved == downstream capacity
  kPacketConservation,  ///< live packets == injected − delivered, the
                        ///< PacketPool's bitmap, counter and free list
                        ///< agree, every live header is well-formed and
                        ///< every queued FIFO entry is live
  kVctAtomicity,        ///< a granted head holds its output exactly
                        ///< packet_size cycles; transfer state is coherent;
                        ///< every packet lands latency cycles after its
                        ///< first phit left
  kWorklists,           ///< activity-worklist soundness/completeness, and
                        ///< the per-router counters and masks the kernel's
                        ///< skips trust match the FIFO contents
  kRingBubble,          ///< escape ring keeps >= one packet of free space
  kWaitGraph,           ///< no wait cycle lies entirely inside ring VCs
};

const char* to_string(Invariant inv) noexcept;

/// kPacketConservation's header relation: src and dst are nodes, dst_router
/// is dst's router, and every group or router field is one or unset.
/// Topology lookups on a header need it to hold.
bool header_valid(const Network& net, const Packet& pkt) noexcept;

struct Violation {
  Invariant invariant = Invariant::kCreditConservation;
  std::string detail;  ///< names the router/port/vc/packet involved
};

struct AuditReport {
  Cycle cycle = 0;
  u32 checks_run = 0;
  u64 suppressed = 0;  ///< violations beyond the per-report cap
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty() && suppressed == 0; }
  bool has(Invariant inv) const noexcept;
  std::string to_string() const;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const Network& net) : net_(net) {}

  /// Runs every check; call between cycles (e.g. right after Network::step
  /// returns, which is when Network's periodic driver runs it).
  AuditReport run_all() const;

  // Individual checks, for tests that target one invariant. Each appends
  // its violations to `rep` and bumps rep.checks_run.
  void check_credit_conservation(AuditReport& rep) const;
  void check_packet_conservation(AuditReport& rep) const;
  void check_vct_atomicity(AuditReport& rep) const;
  void check_worklists(AuditReport& rep) const;
  void check_ring_bubble(AuditReport& rep) const;
  void check_wait_graph(AuditReport& rep) const;

 private:
  void add(AuditReport& rep, Invariant inv, std::string detail) const;
  /// The cycle a queued entry's head arrived, from its u32 stamp.
  i64 arrival_cycle(const VcFifo::Entry& e) const;
  /// Phits the head of `f` has yet to send at cycle `at` when it streams
  /// (its send end lies 1 to packet_size cycles ahead), else 0.
  u32 streaming_left(const VcFifo* f, u32 at) const;
  /// Phits of one packet on a link by the state cycle, its first phit
  /// sent at cycle `first`: one per cycle, at most packet_size.
  u32 sent_since(i64 first) const;
  /// Calls visit(event, due cycle) on every phit event on the wheels.
  template <typename Visit>
  void for_each_phit_event(const Visit& visit) const;

  const Network& net_;
};

}  // namespace ofar::verify
