// Mutation-test harness for the invariant auditor (src/verify/).
//
// Two obligations, mirroring ISSUE 3's acceptance criteria:
//
//  1. Clean pass: on the tier-1 golden-digest workloads the auditor reports
//     zero violations, and enabling periodic auditing leaves the golden
//     stat digests bit-identical (the auditor is read-only and RNG-free).
//  2. Fault injection: seeded corruptions of live network state — a leaked
//     credit, a double-granted head, a wedged transfer, a dropped worklist
//     entry, an erased credit ramp, a delayed head event, a phantom
//     packet, an overfilled escape ring, a wedged ring wait cycle — are
//     each caught by the matching check with an actionable (non-empty,
//     state-naming) report. The corruptions go through public accessors,
//     the same surface a buggy kernel change would reach, except the two
//     wheel mutants, which WheelFaults plants.
//
// The periodic audit's abort path, and the traced journeys it writes
// before aborting, are covered by gtest death tests in "threadsafe" style,
// which re-execute the test binary in a subprocess.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"
#include "verify/invariant_auditor.hpp"
#include "verify/wait_graph.hpp"

namespace ofar {

/// Reaches the event wheels, which no public accessor exposes, to plant
/// the two wheel mutants of section 2: a kernel that loses a credit ramp,
/// or that sends a packet's head event into the wrong slot.
struct WheelFaults {
  /// Erases one credit ramp from the wheels; false when none is on them.
  static bool erase_credit_ramp(Network& net) {
    for (Network::ShardState& sh : net.shards_)
      for (auto& bucket : sh.credit_wheel)
        if (!bucket.empty()) {
          bucket.pop_back();
          return true;
        }
    return false;
  }

  /// Moves one head event into the slot after its own: one that lands in
  /// a FIFO whose head streams on past the delayed landing, so the packet
  /// then waits in the queue. Returns the cycle it lands now, or 0 when no
  /// event qualifies.
  static Cycle delay_head_event(Network& net) {
    const u32 wheel = net.wheel_size_;
    const std::size_t k = net.shards_.size();
    for (u32 d = 0; d + 1 < wheel; ++d) {
      const Cycle due = net.now() + d;
      const std::size_t slot = due % wheel, next = (due + 1) % wheel;
      for (Network::ShardState& sh : net.shards_) {
        for (std::size_t owner = 0; owner < k; ++owner) {
          auto& bucket = sh.phit_wheel[slot * k + owner];
          for (std::size_t i = 0; i < bucket.size(); ++i) {
            const Network::PhitEvent e = bucket[i];
            const Channel ch = net.channel(e.ch);
            if (ch.is_ejection() || !net.router_built(ch.dst_router))
              continue;
            const Router& dst = net.routers_[ch.dst_router];
            const InputPort& in = dst.inputs[ch.dst_port];
            if (in.vcs[e.vc].empty() || in.head_busy[e.vc] == 0 ||
                in.vcs[e.vc].send_end() <= static_cast<u32>(due + 1))
              continue;
            bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
            sh.phit_wheel[next * k + owner].push_back(e);
            return due + 1;
          }
        }
      }
    }
    return 0;
  }
};

namespace {

using verify::AuditReport;
using verify::Invariant;
using verify::InvariantAuditor;
using verify::WaitGraph;

SimConfig matrix_config() {
  SimConfig cfg;
  cfg.h = 4;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  return cfg;
}

/// Small, fast network for the mutation tests (36 routers).
SimConfig small_config() {
  SimConfig cfg = matrix_config();
  cfg.h = 2;
  return cfg;
}

AuditReport audit(const Network& net) {
  return InvariantAuditor(net).run_all();
}

/// A network mid-flight under saturating adversarial traffic: every fault
/// class below corrupts this state.
std::unique_ptr<Network> saturated_net() {
  auto net = std::make_unique<Network>(small_config());
  net->set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.7, 12345));
  net->run(1500);
  return net;
}

/// First router with an output mid-transfer; asserts one exists.
RouterId find_streaming_router(Network& net, PortId& port) {
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (net.router(r).active_out_mask != 0) {
      port = static_cast<PortId>(
          __builtin_ctzll(net.router(r).active_out_mask));
      return r;
    }
  }
  ADD_FAILURE() << "no active transfer in saturated network";
  return 0;
}

/// Expects exactly the targeted invariant among the violations, with a
/// detail string that names some state (actionable, not just a boolean).
void expect_caught(const AuditReport& rep, Invariant inv) {
  EXPECT_FALSE(rep.ok());
  ASSERT_TRUE(rep.has(inv)) << rep.to_string();
  for (const auto& v : rep.violations)
    if (v.invariant == inv) {
      EXPECT_GT(v.detail.size(), 20u);
      break;
    }
  EXPECT_NE(rep.to_string().find(verify::to_string(inv)), std::string::npos);
}

// ---------------------------------------------------------------------------
// 1. clean pass + digest stability
// ---------------------------------------------------------------------------

TEST(AuditorClean, SaturatedMidFlightPassesAllChecks) {
  auto net = saturated_net();
  const AuditReport rep = audit(*net);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.checks_run, 6u);
  EXPECT_NE(rep.to_string().find("all 6 checks passed"), std::string::npos);
}

TEST(AuditorClean, EmbeddedRingMidFlightPassesAllChecks) {
  SimConfig cfg = small_config();
  cfg.ring = RingKind::kEmbedded;
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.7, 12345));
  net.run(1500);
  const AuditReport rep = audit(net);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(AuditorClean, EveryMechanismMidFlightPassesAllChecks) {
  // Each policy writes its own header state (Valiant targets, misroute
  // flags, ring moves); the auditor judges all of it mid-flight.
  for (const RoutingKind rk :
       {RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
        RoutingKind::kUgal, RoutingKind::kPar, RoutingKind::kOfar,
        RoutingKind::kOfarL}) {
    SCOPED_TRACE(to_string(rk));
    SimConfig cfg = small_config();
    cfg.routing = rk;
    cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
    if (rk == RoutingKind::kPar) cfg.vcs_local = 4;
    Network net(cfg);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.7, 12345));
    net.run(1500);
    const AuditReport rep = audit(net);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
}

TEST(AuditorClean, DrainedNetworkPassesAllChecks) {
  Network net(small_config());
  std::vector<PhasedSource::Phase> phases(1);
  phases[0].pattern = TrafficPattern::uniform();
  phases[0].load_phits = 0.01;
  phases[0].until = 1000;
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 7));
  net.run(20000);
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.injected_total(), net.delivered_total());
  const AuditReport rep = audit(net);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

/// Flattened stat digest, as in test_determinism.cpp; the golden constants
/// below are the same ones that suite pins, so a divergence here means the
/// auditor perturbed the simulation.
struct Digest {
  u64 generated, injected, delivered, delivered_phits;
  double lat_sum, lat_sum_sq;
  u64 local_mis, global_mis, ring_in, ring_out;
  double mean_hops;
  u64 max_hops;
  bool drained;
};

Digest digest(const Network& net) {
  const Stats& s = net.stats();
  return {s.generated_packets(), s.injected_packets(), s.delivered_packets(),
          s.delivered_phits(),   s.latency().sum,      s.latency().sum_sq,
          s.local_misroutes(),   s.global_misroutes(), s.ring_entries(),
          s.ring_exits(),        s.mean_hops(),        s.max_hops(),
          net.drained()};
}

void expect_digest_eq(const Digest& a, const Digest& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_phits, b.delivered_phits);
  EXPECT_EQ(a.lat_sum, b.lat_sum);
  EXPECT_EQ(a.lat_sum_sq, b.lat_sum_sq);
  EXPECT_EQ(a.local_mis, b.local_mis);
  EXPECT_EQ(a.global_mis, b.global_mis);
  EXPECT_EQ(a.ring_in, b.ring_in);
  EXPECT_EQ(a.ring_out, b.ring_out);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.drained, b.drained);
}

TEST(AuditorClean, GoldenLowDigestUnchangedWithPeriodicAudit) {
  Network net(matrix_config());
  net.enable_audit(512);  // ~78 full audits across the run
  std::vector<PhasedSource::Phase> phases(1);
  phases[0].pattern = TrafficPattern::uniform();
  phases[0].load_phits = 0.01;
  phases[0].until = 2000;
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 12345));
  net.run(40000);
  expect_digest_eq(digest(net),
                   {2667, 2667, 2667, 21336, 0x1.4db28p+18, 0x1.53af67p+25,
                    2, 0, 0, 0, 0x1.5c19b98b7877p+1, 4, true});
}

TEST(AuditorClean, GoldenSaturationDigestUnchangedWithPeriodicAudit) {
  Network net(matrix_config());
  net.enable_audit(256);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.7, 12345));
  net.run(3000);
  expect_digest_eq(digest(net),
                   {277320, 184021, 92427, 739416, 0x1.9402fecp+26,
                    0x1.199a89e638p+37, 142220, 147991, 14964, 10268,
                    0x1.0a4501716b2b9p+2, 17, false});
}

TEST(AuditorClean, EnableAuditZeroDisables) {
  Network net(small_config());
  net.enable_audit(4);
  net.enable_audit(0);
  net.run(64);  // would audit (and pass) if still enabled; must not crash
  SUCCEED();
}

// ---------------------------------------------------------------------------
// 2. fault injection: every class caught with an actionable report
// ---------------------------------------------------------------------------

TEST(AuditorMutation, LeakedCreditCaught) {
  auto net = saturated_net();
  bool corrupted = false;
  for (RouterId r = 0; r < net->topo().routers() && !corrupted; ++r) {
    for (auto& out : net->router(r).outputs) {
      if (!out.wired() || net->channel(out.channel).is_ejection()) continue;
      if (out.credits[0] == 0) continue;
      --out.credits[0];  // credit vanishes: capacity can never be restored
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  AuditReport rep;
  InvariantAuditor(*net).check_credit_conservation(rep);
  expect_caught(rep, Invariant::kCreditConservation);
  EXPECT_FALSE(net->check_flow_conservation());  // thin wrapper agrees
}

TEST(AuditorMutation, LoweredEjectionCreditCaught) {
  // An ejection output's credits never move: one below its cap is a grant
  // that took a sink's credits.
  auto net = saturated_net();
  --net->router(0).outputs[0].credits[0];
  AuditReport rep;
  InvariantAuditor(*net).check_credit_conservation(rep);
  expect_caught(rep, Invariant::kCreditConservation);
  EXPECT_NE(rep.to_string().find("a sink's credits never move"),
            std::string::npos)
      << rep.to_string();
}

TEST(AuditorMutation, ForgedCreditCaught) {
  auto net = saturated_net();
  bool corrupted = false;
  for (RouterId r = 0; r < net->topo().routers() && !corrupted; ++r) {
    for (auto& out : net->router(r).outputs) {
      if (!out.wired() || net->channel(out.channel).is_ejection()) continue;
      ++out.credits[0];  // free space that does not exist downstream
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  AuditReport rep;
  InvariantAuditor(*net).check_credit_conservation(rep);
  expect_caught(rep, Invariant::kCreditConservation);
}

TEST(AuditorMutation, DoubleGrantedHeadCaught) {
  auto net = saturated_net();
  PortId port = 0;
  const RouterId r = find_streaming_router(*net, port);
  Router& router = net->router(r);
  const OutputPort& out = router.outputs[port];
  // Clearing head_busy re-offers a mid-transfer head to the allocator —
  // the VCT atomicity bug class.
  router.inputs[out.src_port].head_busy[out.src_vc] = 0;
  AuditReport rep;
  InvariantAuditor(*net).check_vct_atomicity(rep);
  expect_caught(rep, Invariant::kVctAtomicity);
}

TEST(AuditorMutation, WedgedTransferCaught) {
  auto net = saturated_net();
  PortId port = 0;
  const RouterId r = find_streaming_router(*net, port);
  // One extra phit-to-send: the head would hold its output for
  // packet_size + 1 cycles, breaking grant-time atomicity.
  ++net->router(r).outputs[port].phits_left;
  AuditReport rep;
  InvariantAuditor(*net).check_vct_atomicity(rep);
  expect_caught(rep, Invariant::kVctAtomicity);
}

TEST(AuditorMutation, DroppedWorklistEntryCaught) {
  Network net(small_config());  // idle: no router is on the worklist
  net.router(5).buffered_packets = 1;
  // Router 5 now has activity but no worklist entry — exactly the state a
  // lost worklist append would produce; its packet would never move.
  AuditReport rep;
  InvariantAuditor(net).check_worklists(rep);
  expect_caught(rep, Invariant::kWorklists);
  EXPECT_FALSE(net.check_worklists());  // thin wrapper agrees
}

TEST(AuditorMutation, RoutableHeadMiscountCaught) {
  auto net = saturated_net();
  ++net->router(0).routable_heads;
  AuditReport rep;
  InvariantAuditor(*net).check_worklists(rep);
  expect_caught(rep, Invariant::kWorklists);
}

TEST(AuditorMutation, InputMaskOtherThanNonEmptyFifosCaught) {
  // A cleared bit hides a queued head from the allocation scan; a bit past
  // the port's VCs (no port has 8) names a FIFO that does not exist.
  auto net = saturated_net();
  for (RouterId r = 0; r < net->topo().routers(); ++r) {
    Router& router = net->router(r);
    for (PortId p = 0; p < router.num_ports(); ++p) {
      const u8 mask = router.input_mask[p];
      if (mask == 0) continue;
      for (const u8 bad : {static_cast<u8>(mask & (mask - 1)),
                           static_cast<u8>(mask | 0x80)}) {
        router.input_mask[p] = bad;
        AuditReport rep;
        InvariantAuditor(*net).check_worklists(rep);
        expect_caught(rep, Invariant::kWorklists);
        EXPECT_NE(rep.to_string().find("input_mask"), std::string::npos)
            << rep.to_string();
      }
      return;
    }
  }
  FAIL() << "no router queues a packet";
}

TEST(AuditorMutation, ActiveMaskBitOfIdleOrMissingOutputCaught) {
  // A trimmed topology (5 of 9 groups) leaves global slots unwired. A mask
  // bit there, or past the router's ports, names a transfer that is not.
  SimConfig cfg = small_config();
  cfg.groups = 5;
  Network net(cfg);
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    Router& router = net.router(r);
    u64 unwired = 0;
    for (PortId p = 0; p < router.num_ports(); ++p)
      if (!router.outputs[p].wired()) unwired = u64{1} << p;
    if (unwired == 0) continue;
    const struct {
      u64 bit;
      const char* witness;
    } cases[] = {{unwired, "the unwired output"},
                 {u64{1} << 63, "names ports past"}};
    for (const auto& c : cases) {
      router.active_out_mask = c.bit;
      AuditReport rep;
      InvariantAuditor(net).check_vct_atomicity(rep);
      expect_caught(rep, Invariant::kVctAtomicity);
      EXPECT_NE(rep.to_string().find(c.witness), std::string::npos)
          << rep.to_string();
    }
    return;
  }
  FAIL() << "the trimmed topology has no unwired port";
}

TEST(AuditorMutation, ErasedTransferCaughtBySendEnd) {
  // An ejection transfer erased with its mask bit and head_busy flag, and
  // its head counted routable again: every index agrees, and an ejection
  // output's credits do not record the transfer. Only the FIFO's send end
  // still says the head streams.
  auto net = saturated_net();
  for (RouterId r = 0; r < net->topo().routers(); ++r) {
    Router& router = net->router(r);
    for (PortId port = 0; port < net->topo().p(); ++port) {
      OutputPort& out = router.outputs[port];
      if (!out.busy()) continue;
      out.active = kInvalidPacket;
      router.active_out_mask &= ~(u64{1} << port);
      router.inputs[out.src_port].head_busy[out.src_vc] = 0;
      ++router.routable_heads;
      AuditReport rep;
      InvariantAuditor(*net).check_vct_atomicity(rep);
      expect_caught(rep, Invariant::kVctAtomicity);
      EXPECT_NE(rep.to_string().find("says it streams, but 0 outputs"),
                std::string::npos)
          << rep.to_string();
      return;
    }
  }
  FAIL() << "no ejection output mid-transfer";
}

TEST(AuditorMutation, ParkedWithoutHeadCaught) {
  // A parked bit the scan would trust on a VC with no routable head, with
  // the parked count kept consistent so only the bit itself is wrong.
  auto net = saturated_net();
  Router& r = net->router(0);  // unparks router 0's heads
  for (PortId p = 0; p < r.num_ports(); ++p) {
    for (VcId v = 0; v < r.inputs[p].vcs.size(); ++v) {
      if (r.inputs[p].has_head(v)) continue;
      r.parked[p] |= static_cast<u8>(1u << v);
      ++r.parked_heads;
      AuditReport rep;
      InvariantAuditor(*net).check_worklists(rep);
      expect_caught(rep, Invariant::kWorklists);
      EXPECT_NE(rep.to_string().find("parked without a routable head"),
                std::string::npos)
          << rep.to_string();
      return;
    }
  }
  FAIL() << "router 0 has a routable head on every VC";
}

TEST(AuditorMutation, ErasedCreditRampCaught) {
  // The packet of credits a ramp returns never lands: its channel's
  // capacity can never be restored.
  auto net = saturated_net();
  ASSERT_TRUE(WheelFaults::erase_credit_ramp(*net));
  AuditReport rep;
  InvariantAuditor(*net).check_credit_conservation(rep);
  expect_caught(rep, Invariant::kCreditConservation);
}

TEST(AuditorMutation, DelayedHeadEventCaughtOnceItLands) {
  // A head event one slot late queues its packet a cycle after its phits
  // could have arrived: the entry's arrival stamp no longer matches its
  // grant.
  auto net = saturated_net();
  const Cycle lands = WheelFaults::delay_head_event(*net);
  ASSERT_NE(lands, 0u) << "no head event lands behind a streaming head";
  while (net->now() <= lands) net->step();
  AuditReport rep;
  InvariantAuditor(*net).check_vct_atomicity(rep);
  expect_caught(rep, Invariant::kVctAtomicity);
  EXPECT_NE(rep.to_string().find("stamps its arrival"), std::string::npos)
      << rep.to_string();
}

TEST(AuditorMutation, PhantomPacketCaught) {
  auto net = saturated_net();
  (void)net->packets().create();  // live packet nobody injected
  AuditReport rep;
  InvariantAuditor(*net).check_packet_conservation(rep);
  expect_caught(rep, Invariant::kPacketConservation);
}

// ---------------------------------------------------------------------------
// escape-ring fault classes
// ---------------------------------------------------------------------------

/// Stuffs `net`'s ring-input FIFO of router r (VC `vc`) with one whole
/// in-ring packet, stamped old enough to clear the wait-graph age gate.
PacketId wedge_ring_head(Network& net, RouterId r, VcId vc) {
  const PacketId id = net.packets().create();
  Packet& pkt = net.packets().get(id);
  pkt.in_ring = true;
  pkt.last_progress = 0;
  pkt.dst = 0;
  pkt.dst_router = net.topo().router_of_node(0);
  const PortId port = net.topo().ring_port();
  Router& router = net.router(r);
  router.inputs[port].vcs[vc].push_whole_packet(
      id, net.config().packet_size, static_cast<u32>(net.state_cycle()));
  ++router.buffered_packets;
  router.input_mask[port] |= static_cast<u8>(1u << vc);
  ++router.routable_heads;
  return id;
}

TEST(AuditorMutation, WedgedRingWaitCycleCaught) {
  SimConfig cfg = small_config();
  cfg.deadlock_timeout = 50;  // age gate for the wait graph
  Network net(cfg);
  net.run(100);  // idle: advance the clock past the timeout
  const Network::RingOut& ro = net.ring_out(0);
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    wedge_ring_head(net, r, 0);
    // Starve every ring VC of the successor: no ride can be granted.
    OutputPort& out = net.router(r).outputs[ro.port];
    for (u32 v = ro.first_vc; v < ro.first_vc + ro.num_vcs; ++v)
      out.credits[v] = 0;
  }
  WaitGraph graph(net);
  graph.build();
  EXPECT_GT(graph.num_edges(), 0u);
  const auto cycle = graph.find_ring_cycle();
  ASSERT_FALSE(cycle.empty());
  EXPECT_NE(WaitGraph::describe(cycle).find("->"), std::string::npos);

  AuditReport rep;
  InvariantAuditor(net).check_wait_graph(rep);
  expect_caught(rep, Invariant::kWaitGraph);
}

TEST(AuditorMutation, SingleStalledRingHeadIsNotACycle) {
  SimConfig cfg = small_config();
  cfg.deadlock_timeout = 50;
  Network net(cfg);
  net.run(100);
  wedge_ring_head(net, 3, 0);
  const Network::RingOut& ro = net.ring_out(3);
  OutputPort& out = net.router(3).outputs[ro.port];
  for (u32 v = ro.first_vc; v < ro.first_vc + ro.num_vcs; ++v)
    out.credits[v] = 0;
  // One starved head is a wait edge, not a wait cycle: no violation.
  AuditReport rep;
  InvariantAuditor(net).check_wait_graph(rep);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(AuditorMutation, OverfilledRingBubbleCaught) {
  Network net(small_config());
  const u32 size = net.config().packet_size;
  const u32 at = static_cast<u32>(net.state_cycle());
  const PortId port = net.topo().ring_port();
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    InputPort& in = net.router(r).inputs[port];
    for (u32 v = 0; v < in.vcs.size(); ++v) {
      while (in.stored_phits(v, at) + size <= in.vcs[v].capacity()) {
        const PacketId id = net.packets().create();
        in.vcs[v].push_whole_packet(id, size, at);
      }
    }
  }
  // Every ring buffer is now full: zero free space, bubble gone.
  AuditReport rep;
  InvariantAuditor(net).check_ring_bubble(rep);
  expect_caught(rep, Invariant::kRingBubble);
}

// ---------------------------------------------------------------------------
// 3. periodic driver abort path (subprocess re-exec via death test)
// ---------------------------------------------------------------------------

/// Leaks one credit of the first inter-router output that holds one.
void leak_one_credit(Network& net) {
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    for (auto& out : net.router(r).outputs) {
      if (!out.wired() || net.channel(out.channel).is_ejection()) continue;
      if (out.credits[0] == 0) continue;
      --out.credits[0];
      return;
    }
  }
}

TEST(AuditorDeath, PeriodicAuditAbortsWithReportOnCorruption) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto net = saturated_net();
        leak_one_credit(*net);
        net->enable_audit(16);
        net->run(32);
      },
      "credit-conservation");
}

TEST(AuditorDeath, AbortWritesTheTracedJourneysFirst) {
  // The journeys of a traced run are its post-mortem: an audit abort
  // writes the Perfetto file first, the packets still in flight included.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "audit_abort_trace.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        Network net(small_config());
        trace::TracerConfig tc;
        tc.out_path = path;
        tc.sample = 4;
        net.enable_tracing(tc);
        net.set_traffic(std::make_unique<BernoulliSource>(
            TrafficPattern::adversarial(1), 0.7, 12345));
        net.run(300);
        leak_one_credit(net);
        net.enable_audit(16);
        net.run(32);
      },
      "credit-conservation");
  std::ifstream in(path);
  const std::string trace((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("(in flight)"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ofar
