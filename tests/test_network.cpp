// Integration tests over the full simulator: construction invariants,
// end-to-end delivery for every routing mechanism (parameterized), drain +
// flow-control conservation (quiescence), latency lower bounds, misroute
// header-flag limits, deadlock-watchdog cleanliness, and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/network.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

SimConfig base_cfg(RoutingKind routing, u32 h = 2) {
  SimConfig cfg;
  cfg.h = h;
  cfg.routing = routing;
  cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
  cfg.seed = 12345;
  return cfg;
}

/// Runs Bernoulli traffic, then detaches the source and drains completely.
/// Returns the network for post-mortem inspection.
std::unique_ptr<Network> run_and_drain(const SimConfig& cfg, double load,
                                       Cycle active_cycles) {
  auto net = std::make_unique<Network>(cfg);
  net->set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), load, cfg.seed));
  net->run(active_cycles);
  net->set_traffic(nullptr);
  u64 guard = 0;
  while (!net->drained() && ++guard < 500000) net->step();
  EXPECT_TRUE(net->drained()) << "network failed to drain";
  // Drained means every packet was delivered; in-flight *credits* may still
  // need up to one wire latency to land before the network is quiescent.
  net->run(cfg.global_latency + 2);
  return net;
}

// ---- construction ----

TEST(Network, ConstructionSizes) {
  Network net(base_cfg(RoutingKind::kMin));
  EXPECT_EQ(net.topo().routers(), 36u);
  // Channels: per router 2 eject + 3 local + 2 global = 7 (h=2, no ring).
  EXPECT_EQ(net.num_channels(), 36u * 7u);
}

TEST(Network, PhysicalRingAddsChannels) {
  Network net(base_cfg(RoutingKind::kOfar));
  // One extra ring channel per router.
  EXPECT_EQ(net.num_channels(), 36u * 8u);
}

TEST(Network, EmbeddedRingAddsNoChannels) {
  SimConfig cfg = base_cfg(RoutingKind::kOfar);
  cfg.ring = RingKind::kEmbedded;
  Network net(cfg);
  EXPECT_EQ(net.num_channels(), 36u * 7u);
  // Exactly one input port per router carries the extra escape VC.
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    u32 ring_inputs = 0;
    for (PortId p = 0; p < net.topo().ports_per_router(); ++p) {
      const auto& in = net.router(r).inputs[p];
      const PortClass cls = net.topo().port_class(p);
      const u32 base = cls == PortClass::kLocal ? cfg.vcs_local
                       : cls == PortClass::kGlobal ? cfg.vcs_global
                                                   : cfg.vcs_injection;
      if (in.vcs.size() == base + 1) {
        ++ring_inputs;
        EXPECT_TRUE(net.is_ring_input(r, p, static_cast<VcId>(base)));
        EXPECT_FALSE(net.is_ring_input(r, p, 0));
      }
    }
    EXPECT_EQ(ring_inputs, 1u);
  }
}

TEST(Network, CreditsMatchDownstreamCapacity) {
  Network net(base_cfg(RoutingKind::kVal));
  const SimConfig& cfg = net.config();
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    const Router& router = net.router(r);
    for (PortId p = 0; p < net.topo().ports_per_router(); ++p) {
      const OutputPort& out = router.outputs[p];
      if (!out.wired()) continue;
      switch (net.topo().port_class(p)) {
        case PortClass::kLocal:
          ASSERT_EQ(out.credits.size(), cfg.vcs_local);
          for (u32 c : out.credits) EXPECT_EQ(c, cfg.fifo_local);
          break;
        case PortClass::kGlobal:
          ASSERT_EQ(out.credits.size(), cfg.vcs_global);
          for (u32 c : out.credits) EXPECT_EQ(c, cfg.fifo_global);
          break;
        default:
          break;
      }
    }
  }
}

TEST(Network, EjectionOutputsStayAtTheirCap) {
  // An ejection output is a sink: no grant takes its credits, so a node
  // can receive for ever without its port running dry.
  Network net(base_cfg(RoutingKind::kOfar));
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.5, net.config().seed));
  net.run(2000);
  ASSERT_GT(net.delivered_total(), 0u);
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    const Router& router = std::as_const(net).router(r);
    for (PortId p = 0; p < net.topo().p(); ++p)
      EXPECT_EQ(router.outputs[p].credits[0],
                router.outputs[p].credit_cap[0])
          << "r" << r << ".p" << p;
  }
}

// ---- parameterized end-to-end behaviour ----

class MechanismTest : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(MechanismTest, DeliversEverythingAndQuiesces) {
  const SimConfig cfg = base_cfg(GetParam());
  auto net = run_and_drain(cfg, 0.15, 3000);
  const Stats& s = net->stats();
  EXPECT_GT(s.delivered_packets(), 1000u);
  EXPECT_EQ(s.delivered_packets(), s.injected_packets());
  EXPECT_EQ(s.delivered_packets(), s.generated_packets());
  EXPECT_TRUE(net->check_quiescent());
  EXPECT_EQ(s.stalled_packets(), 0u);
}

TEST_P(MechanismTest, LatencyRespectsWireLowerBound) {
  const SimConfig cfg = base_cfg(GetParam());
  auto net = run_and_drain(cfg, 0.05, 2000);
  // Any packet crosses at least its ejection link (1 cycle) + 8 phits of
  // serialization; intra-router traffic cannot beat ~size cycles.
  EXPECT_GE(net->stats().latency().min, cfg.packet_size);
  // Mean must exceed the global wire latency because most traffic is
  // inter-group under UN.
  EXPECT_GT(net->stats().latency().mean(), cfg.global_latency);
}

TEST_P(MechanismTest, HopCountsBounded) {
  const SimConfig cfg = base_cfg(GetParam());
  auto net = run_and_drain(cfg, 0.15, 3000);
  // MIN: <=3 hops. VAL/PB/UGAL: <=5. OFAR: <=8 canonical hops plus ring
  // riding; without ring entries the bound is strict.
  const u64 max_hops = net->stats().max_hops();
  switch (GetParam()) {
    case RoutingKind::kMin:
      EXPECT_LE(max_hops, 3u);
      break;
    case RoutingKind::kVal:
    case RoutingKind::kPb:
    case RoutingKind::kUgal:
      EXPECT_LE(max_hops, 5u);
      break;
    default:
      if (net->stats().ring_entries() == 0) {
        EXPECT_LE(max_hops, 8u);
      }
      break;
  }
}

TEST_P(MechanismTest, DeterministicAcrossRuns) {
  const SimConfig cfg = base_cfg(GetParam());
  auto a = run_and_drain(cfg, 0.2, 2000);
  auto b = run_and_drain(cfg, 0.2, 2000);
  EXPECT_EQ(a->stats().delivered_packets(), b->stats().delivered_packets());
  EXPECT_DOUBLE_EQ(a->stats().latency().mean(), b->stats().latency().mean());
  EXPECT_EQ(a->now(), b->now());
}

TEST_P(MechanismTest, SeedChangesTrace) {
  SimConfig cfg = base_cfg(GetParam());
  auto a = run_and_drain(cfg, 0.2, 2000);
  cfg.seed = 999;
  auto b = run_and_drain(cfg, 0.2, 2000);
  EXPECT_NE(a->stats().latency().sum, b->stats().latency().sum);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MechanismTest,
    ::testing::Values(RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
                      RoutingKind::kUgal, RoutingKind::kOfar,
                      RoutingKind::kOfarL),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      std::string n = to_string(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---- adversarial end-to-end ----

class AdversarialDrainTest : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(AdversarialDrainTest, DrainsUnderAdvPlusH) {
  SimConfig cfg = base_cfg(GetParam());
  auto net = std::make_unique<Network>(cfg);
  net->set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(cfg.h), 0.1, cfg.seed));
  net->run(3000);
  net->set_traffic(nullptr);
  u64 guard = 0;
  while (!net->drained() && ++guard < 500000) net->step();
  EXPECT_TRUE(net->drained());
  net->run(cfg.global_latency + 2);  // let in-flight credits land
  EXPECT_TRUE(net->check_quiescent());
  EXPECT_EQ(net->stats().stalled_packets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, AdversarialDrainTest,
    ::testing::Values(RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
                      RoutingKind::kUgal, RoutingKind::kOfar,
                      RoutingKind::kOfarL),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      std::string n = to_string(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---- OFAR specifics ----

TEST(NetworkOfar, EmbeddedRingDrains) {
  SimConfig cfg = base_cfg(RoutingKind::kOfar);
  cfg.ring = RingKind::kEmbedded;
  auto net = run_and_drain(cfg, 0.2, 3000);
  EXPECT_TRUE(net->check_quiescent());
}

TEST(NetworkOfar, MisroutesUnderAdversarialTraffic) {
  SimConfig cfg = base_cfg(RoutingKind::kOfar);
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.2, cfg.seed));
  net.run(4000);
  // The single minimal global link per group pair saturates instantly;
  // OFAR must spread via global misroutes.
  EXPECT_GT(net.stats().global_misroutes(), 100u);
}

TEST(NetworkOfar, InjectionBackpressureThrottlesSources) {
  SimConfig cfg = base_cfg(RoutingKind::kMin);
  Network net(cfg);
  // ADV at overload: minimal routing jams, injection FIFOs fill, pending
  // queues grow, but generated == injected + pending at all times.
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.5, cfg.seed));
  net.run(4000);
  const Stats& s = net.stats();
  EXPECT_LT(s.injected_packets(), s.generated_packets());
  EXPECT_GT(s.delivered_packets(), 0u);
}

TEST(NetworkOfar, TryInjectRespectsCapacity) {
  SimConfig cfg = base_cfg(RoutingKind::kOfar);
  Network net(cfg);
  const u32 per_vc = cfg.fifo_injection / cfg.packet_size;
  const u32 cap = per_vc * cfg.vcs_injection;
  u32 accepted = 0;
  while (net.try_inject(0, 10) && accepted < 1000) ++accepted;
  EXPECT_EQ(accepted, cap);
  const Dragonfly& topo = net.topo();
  const InputPort& in = net.router(topo.router_of_node(0))
                            .inputs[topo.node_port(topo.node_slot(0))];
  const u32 at = static_cast<u32>(net.state_cycle());
  u32 free = 0;
  for (u32 v = 0; v < in.vcs.size(); ++v)
    free += in.vcs[v].capacity() - in.stored_phits(v, at);
  EXPECT_EQ(free, cfg.vcs_injection * cfg.fifo_injection -
                      cap * cfg.packet_size);
}

TEST_P(MechanismTest, FlowConservationHoldsMidRun) {
  // The fundamental credit-based flow-control invariant, audited while the
  // network is busy (not just after drain): for every channel VC,
  //   credits + reserved + wire phits + stored + wire credits == capacity.
  const SimConfig cfg = base_cfg(GetParam());
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), 0.3, cfg.seed));
  for (int burst = 0; burst < 10; ++burst) {
    net.run(250);
    ASSERT_TRUE(net.check_flow_conservation()) << "after " << net.now();
  }
}

TEST(NetworkOfar, FlowConservationUnderAdversarialStress) {
  SimConfig cfg = base_cfg(RoutingKind::kOfar);
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(cfg.h), 0.3, cfg.seed));
  for (int burst = 0; burst < 8; ++burst) {
    net.run(400);
    ASSERT_TRUE(net.check_flow_conservation()) << "after " << net.now();
  }
}

TEST(Network, OfferFeedsPendingThenInjects) {
  SimConfig cfg = base_cfg(RoutingKind::kMin);
  Network net(cfg);
  for (int i = 0; i < 50; ++i) net.offer(0, 20);
  EXPECT_FALSE(net.drained());
  u64 guard = 0;
  while (!net.drained() && ++guard < 100000) net.step();
  EXPECT_EQ(net.stats().delivered_packets(), 50u);
}

}  // namespace
}  // namespace ofar
