// Tests for the extension surface: the PAR baseline (progressive adaptive
// routing with its 4-local-VC discipline) and the §III analytic model.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/analysis.hpp"
#include "core/experiment.hpp"
#include "routing/par.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

SimConfig par_cfg(u32 h = 2) {
  SimConfig cfg;
  cfg.h = h;
  cfg.routing = RoutingKind::kPar;
  cfg.ring = RingKind::kNone;
  cfg.vcs_local = 4;  // PAR's extra local VC
  cfg.seed = 31337;
  return cfg;
}

// ---- PAR ----

TEST(Par, ConfigValidationRequiresFourLocalVcs) {
  SimConfig cfg = par_cfg();
  EXPECT_EQ(cfg.validate(), "");
  cfg.vcs_local = 3;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Par, VcAssignmentFollowsProgressiveLevels) {
  Network net(par_cfg());
  const Dragonfly& topo = net.topo();
  const PortId lport = topo.first_local_port();
  const PortId gport = topo.first_global_port();
  Packet pkt;
  // Source group: first local hop L0, divert hop L1, global G0.
  EXPECT_EQ(par_vc(net, lport, pkt), 0);
  EXPECT_EQ(par_vc(net, gport, pkt), 0);
  pkt.local_hops_in_group = 1;
  EXPECT_EQ(par_vc(net, lport, pkt), 1);
  // After g1: locals jump to L2, the second global uses G1.
  pkt.global_hops = 1;
  pkt.local_hops_in_group = 0;
  EXPECT_EQ(par_vc(net, lport, pkt), 2);
  EXPECT_EQ(par_vc(net, gport, pkt), 1);
  // After g2: destination-group local hop uses L3.
  pkt.global_hops = 2;
  EXPECT_EQ(par_vc(net, lport, pkt), 3);
}

TEST(Par, DeliversAndQuiescesUnderUniform) {
  Network net(par_cfg());
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.15, 1));
  net.run(3000);
  net.set_traffic(nullptr);
  u64 guard = 0;
  while (!net.drained() && ++guard < 500000) net.step();
  ASSERT_TRUE(net.drained());
  net.run(net.config().global_latency + 2);
  EXPECT_TRUE(net.check_quiescent());
  EXPECT_EQ(net.stats().delivered_packets(), net.stats().injected_packets());
  EXPECT_EQ(net.stats().stalled_packets(), 0u);
}

TEST(Par, DrainsUnderAdversarialTraffic) {
  Network net(par_cfg());
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.1, 1));
  net.run(3000);
  net.set_traffic(nullptr);
  u64 guard = 0;
  while (!net.drained() && ++guard < 500000) net.step();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.stats().stalled_packets(), 0u);
}

TEST(Par, SustainsAdversarialBeyondMinCeiling) {
  // MIN is capped at 1/(2h^2) = 0.125 at h=2; PAR must divert and do
  // clearly better.
  const SteadyResult r = run_steady(par_cfg(), TrafficPattern::adversarial(1),
                                    0.2, RunParams::windows(2000, 3000));
  EXPECT_GT(r.accepted_load, 0.15);
}

TEST(Par, HopCountWithinProgressiveBound) {
  Network net(par_cfg());
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(2), 0.2, 1));
  net.run(4000);
  net.set_traffic(nullptr);
  u64 guard = 0;
  while (!net.drained() && ++guard < 500000) net.step();
  EXPECT_LE(net.stats().max_hops(), 6u);  // l-l-g-l-g-l
}

TEST(Par, FlowConservationHolds) {
  Network net(par_cfg());
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.25, 1));
  for (int i = 0; i < 6; ++i) {
    net.run(300);
    ASSERT_TRUE(net.check_flow_conservation());
  }
}

// ---- analytic model ----

TEST(Analysis, ClosedFormCeilings) {
  EXPECT_DOUBLE_EQ(analysis::min_adversarial_ceiling(6), 1.0 / 72.0);
  EXPECT_DOUBLE_EQ(analysis::valiant_global_ceiling(), 0.5);
  EXPECT_DOUBLE_EQ(analysis::valiant_advh_local_ceiling(6), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(analysis::min_local_neighbour_ceiling(4), 0.25);
}

TEST(Analysis, OffsetOneIsGlobalBound) {
  // ADV+1 never funnels: entry and exit carriers mostly coincide, so the
  // Valiant ceiling is the plain global 0.5.
  for (u32 h : {3u, 4u, 6u}) {
    Dragonfly topo(h);
    EXPECT_DOUBLE_EQ(analysis::valiant_adv_offset_ceiling(topo, 1), 0.5)
        << "h=" << h;
  }
}

TEST(Analysis, OffsetHHitsTheLocalFunnel) {
  // ADV+h: essentially all transit flows entering a router leave via its
  // successor, so the ceiling approaches 1/h (paper §III).
  for (u32 h : {3u, 4u, 6u}) {
    Dragonfly topo(h);
    const double ceiling = analysis::valiant_adv_offset_ceiling(topo, h);
    EXPECT_LT(ceiling, 1.25 / h) << "h=" << h;
    EXPECT_GT(ceiling, 0.75 / h) << "h=" << h;
  }
}

TEST(Analysis, MultiplesOfHAreAllFunnels) {
  // Small offsets keep entry and exit carriers mostly coincident; k*h
  // offsets (and their wraparound neighbours) funnel h flows through one
  // local link. Offset 2 is the clean non-funnel reference.
  Dragonfly topo(4);
  const double at_h = analysis::valiant_adv_offset_ceiling(topo, 4);
  const double at_2h = analysis::valiant_adv_offset_ceiling(topo, 8);
  const double off = analysis::valiant_adv_offset_ceiling(topo, 2);
  EXPECT_LT(at_h, off);
  EXPECT_LT(at_2h, off);
  EXPECT_NEAR(at_h, at_2h, 1e-9);
}

TEST(Analysis, CeilingNeverExceedsGlobalBound) {
  Dragonfly topo(3);
  for (u32 offset = 1; offset < topo.groups(); ++offset) {
    const double c = analysis::valiant_adv_offset_ceiling(topo, offset);
    EXPECT_LE(c, 0.5);
    EXPECT_GT(c, 0.0);
  }
}

TEST(Analysis, SimulatedValiantStaysBelowPredictedCeiling) {
  // The analytic value assumes ideal switching; the simulator must sit
  // below it (router efficiency) but within sight of it.
  Dragonfly topo(2);
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kVal;
  cfg.ring = RingKind::kNone;
  for (u32 offset : {1u, 2u}) {
    const double predicted = analysis::valiant_adv_offset_ceiling(topo, offset);
    const SteadyResult r = run_steady(
        cfg, TrafficPattern::adversarial(offset), 0.5, RunParams::windows(2500, 3500));
    EXPECT_LT(r.accepted_load, predicted + 0.02) << "offset " << offset;
    EXPECT_GT(r.accepted_load, predicted * 0.5) << "offset " << offset;
  }
}

// ---- congestion throttle (paper §VII future-work extension) ----

TEST(Throttle, ConfigValidation) {
  SimConfig cfg;
  cfg.congestion_throttle = true;
  EXPECT_EQ(cfg.validate(), "");
  cfg.throttle_off = 0.9;  // off above on: invalid hysteresis
  cfg.throttle_on = 0.5;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Throttle, InactiveByDefaultAndHarmlessAtLowLoad) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.seed = 5;
  const SteadyResult plain =
      run_steady(cfg, TrafficPattern::uniform(), 0.1, RunParams::windows(1500, 2500));
  cfg.congestion_throttle = true;
  const SteadyResult throttled =
      run_steady(cfg, TrafficPattern::uniform(), 0.1, RunParams::windows(1500, 2500));
  // Far below the thresholds the throttle must never engage.
  EXPECT_DOUBLE_EQ(plain.accepted_load, throttled.accepted_load);
  EXPECT_DOUBLE_EQ(plain.avg_latency, throttled.avg_latency);
}

TEST(Throttle, EngagesAboveOnThresholdAndKeepsDelivering) {
  // Aggressively low thresholds make the latch observable at a load the
  // network otherwise handles: injection must be held back while packets
  // still flow (hysteresis releases routers as they drain).
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.congestion_throttle = true;
  cfg.throttle_on = 0.005;
  cfg.throttle_off = 0.002;
  cfg.seed = 5;
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.4, 5));
  net.run(4000);
  EXPECT_LT(net.stats().injected_packets(), net.stats().generated_packets());
  EXPECT_GT(net.stats().delivered_packets(), 500u);
  u32 throttled_routers = 0;
  for (RouterId r = 0; r < net.topo().routers(); ++r)
    if (net.router(r).throttled) ++throttled_routers;
  EXPECT_GT(throttled_routers, 0u);
}

TEST(Throttle, ReleasesAfterLoadDisappears) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.congestion_throttle = true;
  cfg.throttle_on = 0.005;
  cfg.throttle_off = 0.002;
  cfg.seed = 5;
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.4, 5));
  net.run(4000);
  net.set_traffic(nullptr);
  u64 guard = 0;
  while (!net.drained() && ++guard < 500000) net.step();
  EXPECT_TRUE(net.drained());  // throttled sources still drained fully
  net.run(cfg.global_latency + 2);
  for (RouterId r = 0; r < net.topo().routers(); ++r)
    EXPECT_FALSE(net.router(r).throttled) << "router " << r;
}

// ---- stencil traffic ----

TEST(Stencil, DestinationsAreGridNeighbours) {
  Dragonfly topo(2);  // 72 nodes -> 8 x 9 grid
  Rng rng(3);
  const TrafficPattern p = TrafficPattern::stencil2d();
  const u32 nx = 8, ny = 9;
  for (NodeId src = 0; src < topo.nodes(); ++src) {
    for (int i = 0; i < 16; ++i) {
      const NodeId dst = p.pick(src, topo, rng);
      ASSERT_NE(dst, src);
      const i32 sx = src % nx, sy = src / nx;
      const i32 dx = dst % nx, dy = dst / nx;
      const i32 ddx = std::min(std::abs(sx - dx),
                               static_cast<i32>(nx) - std::abs(sx - dx));
      const i32 ddy = std::min(std::abs(sy - dy),
                               static_cast<i32>(ny) - std::abs(sy - dy));
      EXPECT_EQ(ddx + ddy, 1) << src << "->" << dst;
    }
  }
}

TEST(Stencil, AllFourNeighboursAppear) {
  Dragonfly topo(2);
  Rng rng(4);
  const TrafficPattern p = TrafficPattern::stencil2d();
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(p.pick(20, topo, rng));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Stencil, Describe) {
  EXPECT_EQ(TrafficPattern::stencil2d().describe(), "STENCIL2D");
}

TEST(RingStride, NonUnitStrideEscapeRingWorks) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kEmbedded;
  cfg.ring_stride = 2;  // gcd(2, 9 groups) == 1
  cfg.seed = 7;
  ASSERT_EQ(cfg.validate(), "");
  const SteadyResult r =
      run_steady(cfg, TrafficPattern::adversarial(1), 0.15, RunParams::windows(1500, 2500));
  EXPECT_GT(r.accepted_load, 0.13);
  EXPECT_EQ(r.stalled_packets, 0u);
}

TEST(RingStride, AtLeastTwoEdgeDisjointRingsAtH3) {
  Dragonfly topo(3);
  HamiltonianRing r1(topo, 1);
  bool found = false;
  for (u32 stride = 2; stride < topo.groups() && !found; ++stride) {
    if (!HamiltonianRing::constructible(topo, stride)) continue;
    HamiltonianRing r2(topo, stride);
    if (HamiltonianRing::edge_disjoint(topo, r1, r2)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Stencil, RunsEndToEnd) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kOfar;
  cfg.seed = 6;
  const SteadyResult r =
      run_steady(cfg, TrafficPattern::stencil2d(), 0.2, RunParams::windows(1500, 2500));
  EXPECT_GT(r.accepted_load, 0.19);
  EXPECT_EQ(r.stalled_packets, 0u);
}

}  // namespace
}  // namespace ofar
