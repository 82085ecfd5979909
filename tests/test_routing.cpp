// Behavioural tests of the routing mechanisms on small networks: routing
// helpers, Valiant phase bookkeeping, PB's saturation broadcast, OFAR's
// misroute flags and escape-ring discipline, and the qualitative phenomena
// the paper builds on (MIN jams under ADV, OFAR does not).
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "routing/piggyback.hpp"
#include "routing/routing.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

SimConfig cfg_for(RoutingKind routing, u32 h = 2) {
  SimConfig cfg;
  cfg.h = h;
  cfg.routing = routing;
  cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
  cfg.seed = 777;
  return cfg;
}

// ---- routing helpers ----

TEST(RoutingHelpers, MinPortToGroupGoesViaCarrier) {
  Network net(cfg_for(RoutingKind::kMin));
  const Dragonfly& topo = net.topo();
  const GroupId target = 5;
  for (u32 l = 0; l < topo.a(); ++l) {
    const RouterId r = topo.router_at(0, l);
    const PortId p = min_port_to_group(net, r, target);
    if (r == topo.carrier_router(0, target)) {
      EXPECT_EQ(topo.port_class(p), PortClass::kGlobal);
      EXPECT_EQ(topo.group_of(topo.global_peer(r, p).router), target);
    } else {
      EXPECT_EQ(topo.port_class(p), PortClass::kLocal);
      EXPECT_EQ(topo.local_peer(l, p),
                topo.local_of(topo.carrier_router(0, target)));
    }
  }
}

TEST(RoutingHelpers, OrderedVcFollowsHopLevels) {
  Network net(cfg_for(RoutingKind::kVal));
  const Dragonfly& topo = net.topo();
  Packet pkt;
  const PortId lport = topo.first_local_port();
  const PortId gport = topo.first_global_port();
  // l1 before any global hop -> local VC 0; g1 -> global VC 0.
  EXPECT_EQ(ordered_vc(net, lport, pkt), 0);
  EXPECT_EQ(ordered_vc(net, gport, pkt), 0);
  // After g1: l2 -> local VC 1, g2 -> global VC 1.
  pkt.global_hops = 1;
  pkt.local_hops_in_group = 0;
  EXPECT_EQ(ordered_vc(net, lport, pkt), 1);
  EXPECT_EQ(ordered_vc(net, gport, pkt), 1);
  // After g2: l3 -> local VC 2.
  pkt.global_hops = 2;
  EXPECT_EQ(ordered_vc(net, lport, pkt), 2);
  // Intra-group Valiant: second local hop in the same group -> VC 1.
  pkt.global_hops = 0;
  pkt.local_hops_in_group = 1;
  EXPECT_EQ(ordered_vc(net, lport, pkt), 1);
}

TEST(RoutingHelpers, ValiantPhaseCompletesOnArrival) {
  Network net(cfg_for(RoutingKind::kVal));
  const Dragonfly& topo = net.topo();
  Packet pkt;
  pkt.src = 0;
  pkt.dst = topo.node_at(topo.router_at(4, 1), 0);
  pkt.dst_router = topo.router_at(4, 1);
  pkt.inter_group = 2;
  pkt.valiant_done = false;
  // At a router of the intermediate group the phase flips to done.
  (void)valiant_next_port(net, topo.router_at(2, 3), pkt);
  EXPECT_TRUE(pkt.valiant_done);
  // At the destination router the helper returns the ejection port.
  const PortId e = valiant_next_port(net, pkt.dst_router, pkt);
  EXPECT_EQ(net.topo().port_class(e), PortClass::kNode);
}

// ---- policy-level behaviour ----

TEST(MinimalRouting, NeverMisroutesAndJamsUnderAdversarial) {
  const SimConfig cfg = cfg_for(RoutingKind::kMin);
  const SteadyResult un =
      run_steady(cfg, TrafficPattern::uniform(), 0.2, RunParams::windows(2000, 3000));
  const SteadyResult adv =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.2, RunParams::windows(2000, 3000));
  EXPECT_EQ(un.local_misroutes + un.global_misroutes, 0u);
  // ADV+1 under MIN: one global link serves a whole group, an analytic
  // ceiling of 1/(2h^2) = 0.125 phits/(node*cycle) at h=2 (paper §III).
  EXPECT_GT(un.accepted_load, 0.19);
  EXPECT_LT(adv.accepted_load, 0.13);
  EXPECT_GT(adv.accepted_load, 0.08);
}

TEST(ValiantRouting, SustainsAdversarialTraffic) {
  const SimConfig cfg = cfg_for(RoutingKind::kVal);
  const SteadyResult adv =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.15, RunParams::windows(2000, 3000));
  EXPECT_GT(adv.accepted_load, 0.14);
}

TEST(ValiantRouting, HalvesUniformThroughput) {
  const SimConfig cfg = cfg_for(RoutingKind::kVal);
  // Offered 0.45 exceeds Valiant's ~0.5 ceiling once overheads bite.
  const SteadyResult un =
      run_steady(cfg, TrafficPattern::uniform(), 0.45, RunParams::windows(3000, 4000));
  EXPECT_LT(un.accepted_load, 0.45);
}

TEST(PiggybackRouting, RoutesMinimallyWhenQuiet) {
  const SimConfig cfg = cfg_for(RoutingKind::kPb);
  const SteadyResult un =
      run_steady(cfg, TrafficPattern::uniform(), 0.05, RunParams::windows(2000, 3000));
  // At very low uniform load PB should look like MIN: short paths.
  EXPECT_LT(un.mean_hops, 3.2);
}

TEST(PiggybackRouting, DivertsUnderAdversarial) {
  const SimConfig cfg = cfg_for(RoutingKind::kPb);
  const SteadyResult adv =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.15, RunParams::windows(2000, 3000));
  // Valiant-style paths dominate: mean hops well above minimal.
  EXPECT_GT(adv.mean_hops, 3.0);
  EXPECT_GT(adv.accepted_load, 0.12);
}

TEST(UgalRouting, SustainsAdversarialTraffic) {
  const SimConfig cfg = cfg_for(RoutingKind::kUgal);
  const SteadyResult adv =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.12, RunParams::windows(2000, 3000));
  EXPECT_GT(adv.accepted_load, 0.1);
}

TEST(OfarRouting, LowLoadLatencyCompetitiveWithMin) {
  const SteadyResult min = run_steady(cfg_for(RoutingKind::kMin),
                                      TrafficPattern::uniform(), 0.05,
                                      RunParams::windows(2000, 3000));
  const SteadyResult ofar = run_steady(cfg_for(RoutingKind::kOfar),
                                       TrafficPattern::uniform(), 0.05,
                                       RunParams::windows(2000, 3000));
  EXPECT_LT(ofar.avg_latency, min.avg_latency * 1.25);
}

TEST(OfarRouting, EscapeRingRarelyUsedAtLowLoad) {
  const SteadyResult r = run_steady(cfg_for(RoutingKind::kOfar),
                                    TrafficPattern::uniform(), 0.1,
                                    RunParams::windows(2000, 4000));
  EXPECT_LT(static_cast<double>(r.ring_entries),
            0.01 * static_cast<double>(r.delivered_packets));
}

TEST(OfarRouting, GlobalMisroutesReplaceValiantUnderAdversarial) {
  const SteadyResult r = run_steady(cfg_for(RoutingKind::kOfar),
                                    TrafficPattern::adversarial(1), 0.15,
                                    RunParams::windows(2000, 3000));
  EXPECT_GT(r.accepted_load, 0.14);
  // The direct link's 1/(2h^2) = 0.125 ceiling forces the excess offered
  // load (here ~17% of 0.15) onto global misroutes.
  EXPECT_GT(r.global_misroutes, r.delivered_packets / 10);
}

TEST(OfarRouting, OfarLNeverMisroutesLocally) {
  const SteadyResult r = run_steady(cfg_for(RoutingKind::kOfarL),
                                    TrafficPattern::adversarial(2), 0.2,
                                    RunParams::windows(2000, 3000));
  EXPECT_EQ(r.local_misroutes, 0u);
  EXPECT_GT(r.global_misroutes, 0u);
}

TEST(OfarRouting, WorksWithEmbeddedRing) {
  SimConfig cfg = cfg_for(RoutingKind::kOfar);
  cfg.ring = RingKind::kEmbedded;
  const SteadyResult r =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.15, RunParams::windows(2000, 3000));
  EXPECT_GT(r.accepted_load, 0.13);
  EXPECT_EQ(r.stalled_packets, 0u);
}

TEST(OfarRouting, StaticThresholdVariantWorks) {
  SimConfig cfg = cfg_for(RoutingKind::kOfar);
  cfg.thresholds.variable = false;  // Th_min = th_min, Th_nonmin = 40%
  cfg.thresholds.th_min = 1.0;
  const SteadyResult r =
      run_steady(cfg, TrafficPattern::uniform(), 0.2, RunParams::windows(2000, 3000));
  EXPECT_GT(r.accepted_load, 0.19);
  EXPECT_EQ(r.stalled_packets, 0u);
}

// ---- PB broadcast table ----

TEST(PiggybackTable, FlagsSaturatedGlobalChannels) {
  SimConfig cfg = cfg_for(RoutingKind::kPb);
  Network net(cfg);
  auto* pb = dynamic_cast<PiggybackPolicy*>(&net.policy());
  ASSERT_NE(pb, nullptr);
  // Jam one global channel by filling its credits artificially.
  const RouterId victim = net.topo().carrier_router(0, 1);
  const PortId gport = net.topo().carrier_port(0, 1);
  Router& r = net.router(victim);
  for (auto& c : r.outputs[gport].credits) c = 0;
  // Let the policy tick past the broadcast delay.
  for (u32 i = 0; i < cfg.pb_broadcast_delay + 2; ++i) net.step();
  const u32 j = static_cast<u32>(gport) - net.topo().first_global_port();
  EXPECT_TRUE(pb->saturated(victim, j));
  // Other channels stay clean.
  EXPECT_FALSE(pb->saturated(victim, (j + 1) % cfg.h));
}

// ---- experiment drivers ----

TEST(Experiment, LoadSweepIsMonotoneInOfferedLoad) {
  const SimConfig cfg = cfg_for(RoutingKind::kMin);
  std::vector<double> accepted;
  for (const double load : {0.05, 0.1, 0.2})
    accepted.push_back(run_steady(cfg, TrafficPattern::uniform(), load,
                                  RunParams::windows(1500, 2500))
                           .accepted_load);
  EXPECT_LT(accepted[0], accepted[1]);
  EXPECT_LT(accepted[1], accepted[2]);
}

TEST(Experiment, TransientSeriesCoversSwitch) {
  TransientParams params;
  params.warmup = 3000;
  params.horizon = 2000;
  params.lead = 500;
  params.drain = 3000;
  params.bucket = 250;
  const auto result =
      run_transient(cfg_for(RoutingKind::kOfar), TrafficPattern::uniform(),
                    0.1, TrafficPattern::adversarial(1), 0.1, params);
  ASSERT_EQ(result.series.size(), 10u);
  EXPECT_LT(result.series.front().cycle_rel, 0);
  EXPECT_GT(result.series.back().cycle_rel, 0);
  u64 total = 0;
  for (const auto& b : result.series) total += b.packets;
  EXPECT_GT(total, 500u);
}

TEST(Experiment, BurstCompletesAndCountsEverything) {
  BurstParams params;
  params.packets_per_node = 10;
  params.max_cycles = 300000;
  const auto result = run_burst(cfg_for(RoutingKind::kOfar),
                                TrafficPattern::uniform(), params);
  EXPECT_TRUE(result.completed);
  Network probe(cfg_for(RoutingKind::kOfar));
  EXPECT_EQ(result.delivered_packets, 10u * probe.topo().nodes());
}

}  // namespace
}  // namespace ofar
