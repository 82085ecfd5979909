// Tests for traffic patterns and generators: destination distributions of
// UN / ADV+N / mixtures, and (via a tiny network) the Bernoulli, phased and
// burst sources' offered-load behaviour.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "topology/dragonfly.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

TEST(TrafficPattern, UniformNeverPicksSelfAndCoversAll) {
  Dragonfly topo(2);
  Rng rng(1);
  const TrafficPattern p = TrafficPattern::uniform();
  const NodeId src = 5;
  std::map<NodeId, int> hist;
  for (int i = 0; i < 20000; ++i) {
    const NodeId dst = p.pick(src, topo, rng);
    EXPECT_NE(dst, src);
    EXPECT_LT(dst, topo.nodes());
    ++hist[dst];
  }
  EXPECT_EQ(hist.size(), topo.nodes() - 1);  // every other node reachable
}

TEST(TrafficPattern, UniformIsRoughlyUniform) {
  Dragonfly topo(2);
  Rng rng(2);
  const TrafficPattern p = TrafficPattern::uniform();
  std::vector<int> hist(topo.nodes(), 0);
  const int n = 71000;
  for (int i = 0; i < n; ++i) ++hist[p.pick(0, topo, rng)];
  const double expect = static_cast<double>(n) / (topo.nodes() - 1);
  for (NodeId d = 1; d < topo.nodes(); ++d)
    EXPECT_NEAR(hist[d], expect, expect * 0.35) << "node " << d;
}

TEST(TrafficPattern, AdversarialTargetsOffsetGroup) {
  Dragonfly topo(3);
  Rng rng(3);
  for (u32 offset : {1u, 3u, 7u}) {
    const TrafficPattern p = TrafficPattern::adversarial(offset);
    for (NodeId src : {NodeId{0}, NodeId{50}, NodeId{100}}) {
      for (int i = 0; i < 200; ++i) {
        const NodeId dst = p.pick(src, topo, rng);
        EXPECT_EQ(topo.group_of_node(dst),
                  (topo.group_of_node(src) + offset) % topo.groups());
      }
    }
  }
}

TEST(TrafficPattern, AdversarialFullOffsetWrapsToOwnGroupWithoutSelf) {
  Dragonfly topo(2);  // 9 groups
  Rng rng(4);
  const TrafficPattern p = TrafficPattern::adversarial(9);  // ≡ own group
  for (int i = 0; i < 2000; ++i) {
    const NodeId dst = p.pick(3, topo, rng);
    EXPECT_EQ(topo.group_of_node(dst), topo.group_of_node(NodeId{3}));
    EXPECT_NE(dst, 3u);
  }
}

TEST(TrafficPattern, MixRespectsWeights) {
  // Three ADV components send node 0 (group 0) to three distinct groups,
  // so the destination group names the component that picked.
  Dragonfly topo(2);
  Rng rng(5);
  const TrafficPattern p = TrafficPattern::mix({
      {PatternKind::kAdversarial, 1, 0.8},
      {PatternKind::kAdversarial, 3, 0.1},
      {PatternKind::kAdversarial, 6, 0.1},
  });
  std::map<GroupId, int> groups;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    ++groups[topo.group_of_node(p.pick(0, topo, rng))];
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_NEAR(groups[1] / double(n), 0.8, 0.02);
  EXPECT_NEAR(groups[3] / double(n), 0.1, 0.02);
  EXPECT_NEAR(groups[6] / double(n), 0.1, 0.02);
}

TEST(TrafficPattern, Describe) {
  EXPECT_EQ(TrafficPattern::uniform().describe(), "UN");
  EXPECT_EQ(TrafficPattern::adversarial(6).describe(), "ADV+6");
  const auto mix = TrafficPattern::mix({{PatternKind::kUniform, 0, 0.8},
                                        {PatternKind::kAdversarial, 1, 0.2}});
  EXPECT_EQ(mix.describe(), "UN(0.8)+ADV+1(0.2)");
}

// ---- generators over a small real network ----

SimConfig tiny_cfg() {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = RoutingKind::kMin;
  cfg.ring = RingKind::kNone;
  cfg.seed = 99;
  return cfg;
}

TEST(BernoulliSource, OfferedLoadMatchesRequest) {
  Network net(tiny_cfg());
  const double load = 0.2;
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::uniform(), load, 7));
  net.run(5000);
  const double offered = net.stats().offered_load(net.now(), net.topo().nodes());
  EXPECT_NEAR(offered, load, 0.01);
}

TEST(PhasedSource, SwitchesPatternAtBoundary) {
  Network net(tiny_cfg());
  std::vector<PhasedSource::Phase> phases;
  phases.push_back({TrafficPattern::uniform(), 0.1, 1000});
  phases.push_back({TrafficPattern::adversarial(2), 0.1, 0});
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 7));
  // Phase A (UN) sends some packets outside group + 2; well after the
  // switch, phase B (ADV+2) sends every packet there.
  const Dragonfly& topo = net.topo();
  u64 before_off_adv = 0, after = 0, after_off_adv = 0;
  net.set_tracer([&](const TraceEvent& ev) {
    if (ev.kind != TraceEvent::Kind::kInject) return;
    const bool adv = topo.group_of_node(ev.dst) ==
                     (topo.group_of_node(ev.src) + 2) % topo.groups();
    if (ev.cycle < 1000) before_off_adv += adv ? 0 : 1;
    if (ev.cycle >= 2000) {
      ++after;
      after_off_adv += adv ? 0 : 1;
    }
  });
  net.run(3000);
  EXPECT_GT(before_off_adv, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_EQ(after_off_adv, 0u);
}

TEST(BurstSource, InjectsExactBudgetAndFinishes) {
  Network net(tiny_cfg());
  const u32 per_node = 20;
  auto src = std::make_unique<BurstSource>(TrafficPattern::uniform(),
                                           per_node, 7);
  BurstSource* burst = src.get();
  net.set_traffic(std::move(src));
  u64 guard = 0;
  while ((!burst->finished() || !net.drained()) && ++guard < 200000)
    net.step();
  EXPECT_TRUE(burst->finished());
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.stats().delivered_packets(),
            static_cast<u64>(per_node) * net.topo().nodes());
}

TEST(BurstSource, NotFinishedBeforeFirstTick) {
  BurstSource src(TrafficPattern::uniform(), 5, 1);
  EXPECT_FALSE(src.finished());
}

}  // namespace
}  // namespace ofar
