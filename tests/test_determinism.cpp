// Determinism regression suite for the activity-driven cycle kernel.
//
// The kernel optimizations (activity worklists, SoA port state, the
// blocked Bernoulli source, the routable-head allocation skip) are only
// admissible because they leave per-seed behaviour bit-identical. This
// suite pins that property two ways:
//
//  1. Golden stats: the four matrix configs (h=4 OFAR on the physical
//     ring, seed 12345: UN and ADV+1 burst-and-drain at 0.01 until cycle
//     2000 over 40000 cycles, UN at 1.0 and ADV+1 at 0.7 steady for 3000
//     cycles) must reproduce stat digests captured from the pre-worklist
//     full-scan implementation (seed commit) exactly — including latency
//     accumulators compared as doubles with zero tolerance. Every routing
//     mechanism and the embedded ring have their own goldens on a small
//     saturated network, and the sharded-kernel configs below carry
//     absolute goldens on top of their thread-count comparisons.
//  2. Replay: the same config+seed run twice yields byte-identical stats.
//     Sweep points own their RNGs, so a sweep's worker-thread count
//     cannot change them (Orchestrator.DigestInvariantToThreadCount).
//
// Plus structural invariants after a drain: flow conservation, quiescence,
// and worklist consistency (Network::check_worklists), and parked heads:
// they happen, and unparking every head between cycles changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

SimConfig matrix_config() {
  SimConfig cfg;
  cfg.h = 4;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  return cfg;
}

/// Flattened stat digest; every field a golden constant can pin.
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
  // Bit-identical, not approximately equal: the accumulation order itself
  // is part of the determinism contract.
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

/// The matrix's burst-and-drain configs: burst at 0.01 until cycle 2000,
/// then drain over a 40000-cycle horizon.
Digest run_low(const TrafficPattern& pattern, Network* keep = nullptr) {
  Network local(matrix_config());
  Network& net = keep ? *keep : local;
  std::vector<PhasedSource::Phase> phases(1);
  phases[0].pattern = pattern;
  phases[0].load_phits = 0.01;
  phases[0].until = 2000;
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 12345));
  net.run(40000);
  return digest(net);
}

/// The matrix's saturated configs: steady Bernoulli for 3000 cycles.
Digest run_sat(const TrafficPattern& pattern, double load) {
  Network net(matrix_config());
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, 12345));
  net.run(3000);
  return digest(net);
}

/// Small network (h=2: 36 routers, 72 nodes) so a saturated run stays fast.
SimConfig sharded_config(u32 shards, RingKind ring) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = ring;
  cfg.sim_shards = shards;
  return cfg;
}

Digest run_sharded_sat(const SimConfig& cfg, unsigned sim_threads,
                       const TrafficPattern& pattern, double load) {
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, cfg.seed));
  net.run(3000);
  return digest(net);
}

// ---------------------------------------------------------------------------
// 1. Golden stats captured from the seed (pre-worklist) implementation.
//    Hex-float literals so the comparison is exact. Regenerate only if the
//    simulation *semantics* intentionally change; a mismatch after a pure
//    performance change means the optimization altered behaviour.
// ---------------------------------------------------------------------------

TEST(GoldenStats, UniformLowBurstDrain) {
  const Digest d = run_low(TrafficPattern::uniform());
  expect_digest_eq(d, {2667, 2667, 2667, 21336, 0x1.4db28p+18,
                       0x1.53af67p+25, 2, 0, 0, 0, 0x1.5c19b98b7877p+1, 4,
                       true});
}

TEST(GoldenStats, AdversarialLowBurstDrain) {
  const Digest d = run_low(TrafficPattern::adversarial(1));
  expect_digest_eq(d, {2667, 2667, 2667, 21336, 0x1.6476p+18, 0x1.8722f1p+25,
                       212, 98, 0, 0, 0x1.78b4751af8fe3p+1, 6, true});
}

TEST(GoldenStats, UniformSaturation) {
  const Digest d = run_sat(TrafficPattern::uniform(), 1.0);
  expect_digest_eq(d, {396316, 271080, 187507, 1500056, 0x1.168f1a4p+27,
                       0x1.18208ca9cp+37, 159776, 27060, 12262, 9931,
                       0x1.d37de6467d51cp+1, 32, false});
}

TEST(GoldenStats, AdversarialSaturation) {
  const Digest d = run_sat(TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(d, {277320, 184021, 92427, 739416, 0x1.9402fecp+26,
                       0x1.199a89e638p+37, 142220, 147991, 14964, 10268,
                       0x1.0a4501716b2b9p+2, 17, false});
}

// Every mechanism, plus OFAR on the embedded ring, at sim_shards = 1 on the
// small network under saturated ADV+1: misrouting, the escape ring and each
// policy's own route() path all run. Recorded with the separate sequential
// kernel that K = 1 used to run, so they pin that the one-shard staged
// kernel reproduces it bit for bit.
TEST(GoldenStats, EveryMechanismSaturatedSmallNetwork) {
  struct Golden {
    RoutingKind routing;
    RingKind ring;
    Digest digest;
  };
  const Golden goldens[] = {
      {RoutingKind::kMin, RingKind::kNone,
       {18986, 4233, 3089, 24712, 0x1.e1452p+21, 0x1.8261c0ccp+32, 0, 0, 0,
        0, 0x1.2ae33e12baccbp+1, 3, false}},
      {RoutingKind::kVal, RingKind::kNone,
       {18986, 12440, 9894, 79152, 0x1.e96f4p+22, 0x1.d96df63ap+32, 0, 0, 0,
        0, 0x1.f36983e83217bp+1, 5, false}},
      {RoutingKind::kPb, RingKind::kNone,
       {18986, 13782, 11361, 90888, 0x1.cf6dcp+22, 0x1.7b8c7bf4p+32, 0, 0, 0,
        0, 0x1.d5ce78d2bb122p+1, 5, false}},
      {RoutingKind::kUgal, RingKind::kNone,
       {18986, 10622, 9097, 72776, 0x1.7005b4p+22, 0x1.96560495p+32, 0, 0, 0,
        0, 0x1.d253b1179c449p+1, 5, false}},
      {RoutingKind::kPar, RingKind::kNone,
       {18986, 12567, 10076, 80608, 0x1.d61ab8p+22, 0x1.bb1dcacap+32, 0, 0, 0,
        0, 0x1.cf2e3d961aa06p+1, 6, false}},
      {RoutingKind::kOfar, RingKind::kPhysical,
       {18986, 16847, 11293, 90344, 0x1.e7f73cp+22, 0x1.aa32e0b7p+32, 11054,
        10820, 4002, 3574, 0x1.08e5c5a67532cp+2, 15, false}},
      {RoutingKind::kOfarL, RingKind::kPhysical,
       {18986, 16050, 13425, 107400, 0x1.80069cp+22, 0x1.0b356e19p+32, 0,
        10345, 3784, 3573, 0x1.a0dff1f71d28p+1, 9, false}},
      {RoutingKind::kOfar, RingKind::kEmbedded,
       {18986, 12504, 6044, 48352, 0x1.490144p+22, 0x1.795fc435p+32, 7795,
        8813, 1098, 802, 0x1.fb6784a8bf1c5p+1, 11, false}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(to_string(g.routing));
    SCOPED_TRACE(to_string(g.ring));
    SimConfig cfg = sharded_config(1, g.ring);
    cfg.routing = g.routing;
    if (g.routing == RoutingKind::kPar) cfg.vcs_local = 4;
    expect_digest_eq(
        run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7),
        g.digest);
  }
}

// ---------------------------------------------------------------------------
// 2. Replay: identical config+seed twice -> identical stats.
// ---------------------------------------------------------------------------

TEST(Replay, SameSeedTwiceIsByteIdentical) {
  const Digest a = run_sat(TrafficPattern::adversarial(1), 0.7);
  const Digest b = run_sat(TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(a, b);
}

TEST(Replay, DifferentSeedDiverges) {
  SimConfig cfg = matrix_config();
  Network a(cfg);
  cfg.seed = 54321;
  Network b(cfg);
  a.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                  0.3, 12345));
  b.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                  0.3, 54321));
  a.run(3000);
  b.run(3000);
  EXPECT_NE(digest(a).lat_sum, digest(b).lat_sum);
}

// ---------------------------------------------------------------------------
// 3. Structural invariants after a full drain.
// ---------------------------------------------------------------------------

TEST(Invariants, DrainedNetworkIsConsistent) {
  Network net(matrix_config());
  (void)run_low(TrafficPattern::uniform(), &net);
  ASSERT_TRUE(net.drained());
  EXPECT_TRUE(net.check_flow_conservation());
  EXPECT_TRUE(net.check_quiescent());
  EXPECT_TRUE(net.check_worklists());
}

TEST(Invariants, WorklistsConsistentMidFlight) {
  Network net(matrix_config());
  net.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                    0.3, 12345));
  for (int chunk = 0; chunk < 20; ++chunk) {
    net.run(100);
    ASSERT_TRUE(net.check_flow_conservation());
    ASSERT_TRUE(net.check_worklists());
  }
}

// ---------------------------------------------------------------------------
// 4. Sharded cycle kernel (DESIGN.md §10). With sim_shards > 1 the staged
//    commit kernel is its own deterministic universe: its results differ
//    from sim_shards=1 (allocation/injection interleaving changes), but must
//    be bit-identical across every sim_threads value — the thread count is
//    pure execution policy. Test names contain "Thread" so the CI TSAN
//    job's --gtest_filter picks them up.
// ---------------------------------------------------------------------------

TEST(ShardedKernel, SaturatedPhysicalRingIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  // Saturated adversarial traffic exercises misroutes and the escape ring;
  // a commit ordered by thread arrival instead of shard index would diverge
  // here within a few cycles.
  expect_digest_eq(one, {18986, 16659, 11087, 88696, 0x1.d8a6e4p+22,
                         0x1.952c9c03p+32, 10895, 10788, 3979, 3571,
                         0x1.08e6b761b1b98p+2, 21, false});
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, SaturatedEmbeddedRingIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kEmbedded);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(one, {18986, 12752, 6287, 50296, 0x1.5c7dap+22,
                         0x1.9335052ep+32, 7905, 9012, 1042, 728,
                         0x1.f91e55eabea56p+1, 11, false});
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, UniformSaturationIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest one = run_sharded_sat(cfg, 1, TrafficPattern::uniform(), 1.0);
  expect_digest_eq(one, {27054, 21269, 17703, 141624, 0x1.2c3b02p+23,
                         0x1.adfd5d55p+32, 6450, 1148, 76, 61,
                         0x1.69c084587141dp+1, 11, false});
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::uniform(), 1.0));
}

TEST(ShardedKernel, GroupStraddlingShardBoundariesIdenticalAcrossThreads) {
  // 36 routers / 7 shards puts every shard boundary inside a group
  // (boundaries at routers 5,10,15,20,25,30; groups are 4 routers wide), so
  // intra-group traffic constantly crosses shards. Exercises cross-shard
  // event delivery far harder than group-aligned partitions.
  const SimConfig cfg = sharded_config(7, RingKind::kPhysical);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(one, {18986, 16729, 11320, 90560, 0x1.e47dfcp+22,
                         0x1.a5a10967p+32, 10981, 10793, 4080, 3682,
                         0x1.08f77f2f94e56p+2, 17, false});
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, ReplayWithThreadsIsByteIdentical) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest a =
      run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1), 0.7);
  const Digest b =
      run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(a, b);
}

// ---------------------------------------------------------------------------
// 5. Edge cases of the delivery, injection and drained-cycle paths, pinned
//    at K = 1 and K = 4 and reproduced at sim_threads 1 and 4:
//    - injection FIFOs that hold 2.5 packets, so injection space returns to
//      a backlogged node one phit at a time, mid-packet;
//    - the congestion throttle, whose latches set and release;
//    - traffic switched off until the network drains, then back on.
// ---------------------------------------------------------------------------

struct ShardGoldens {
  Digest k1;  ///< sim_shards = 1
  Digest k4;  ///< sim_shards = 4
};

template <typename MakeTraffic>
void expect_edge_goldens(SimConfig cfg, Cycle cycles,
                         const MakeTraffic& make_traffic,
                         const ShardGoldens& golden) {
  for (const u32 shards : {1u, 4u}) {
    cfg.sim_shards = shards;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "sim_shards " << shards << ", sim_threads " << threads);
      Network net(cfg);
      net.set_sim_threads(threads);
      net.set_traffic(make_traffic(cfg));
      net.run(cycles);
      EXPECT_TRUE(net.check_worklists());
      expect_digest_eq(digest(net), shards == 1 ? golden.k1 : golden.k4);
    }
  }
}

TEST(GoldenStats, InjectionSpaceReturnsMidPacket) {
  SimConfig cfg = sharded_config(1, RingKind::kPhysical);
  cfg.fifo_injection = 20;  // 2.5 packets of 8 phits
  expect_edge_goldens(
      cfg, 3000,
      [](const SimConfig& c) {
        return std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                 1.0, c.seed);
      },
      {{27054, 20943, 17560, 140480, 0x1.2be196p+23, 0x1.b0fd317dp+32, 6475,
        1121, 118, 88, 0x1.6a84b934d5328p+1, 16, false},
       {27054, 20786, 17638, 141104, 0x1.2c9d96p+23, 0x1.aceed19dp+32, 6524,
        1100, 105, 96, 0x1.6bc64ab7fb1f9p+1, 26, false}});
}

TEST(GoldenStats, ThrottleLatchesSetAndRelease) {
  SimConfig cfg = sharded_config(1, RingKind::kPhysical);
  cfg.congestion_throttle = true;
  expect_edge_goldens(
      cfg, 3000,
      [](const SimConfig& c) {
        return std::make_unique<BernoulliSource>(
            TrafficPattern::adversarial(1), 0.7, c.seed);
      },
      {{18986, 16600, 11810, 94480, 0x1.fa93f4p+22, 0x1.b2d7bc89p+32, 11486,
        10994, 3990, 3642, 0x1.0a00f42a23a2ep+2, 17, false},
       {18986, 16548, 11792, 94336, 0x1.fda3dcp+22, 0x1.b44b38fbp+32, 11512,
        10886, 4114, 3770, 0x1.0a3f37ec8c54cp+2, 15, false}});
}

TEST(GoldenStats, TrafficOffDrainsThenResumes) {
  // Saturating UN until 1500, nothing until 5000, then UN again. The
  // network drains during the gap (checked below), so drained cycles, and
  // nodes whose queues emptied and refill, are both on the path.
  const auto make_traffic = [](const SimConfig& c) {
    std::vector<PhasedSource::Phase> phases(3);
    phases[0].pattern = TrafficPattern::uniform();
    phases[0].load_phits = 0.9;
    phases[0].until = 1500;
    phases[1].pattern = TrafficPattern::uniform();
    phases[1].load_phits = 0.0;
    phases[1].until = 5000;
    phases[2].pattern = TrafficPattern::uniform();
    phases[2].load_phits = 0.9;
    return std::make_unique<PhasedSource>(std::move(phases), c.seed);
  };
  SimConfig cfg = sharded_config(1, RingKind::kPhysical);
  for (const u32 shards : {1u, 4u}) {
    cfg.sim_shards = shards;
    Network net(cfg);
    net.set_traffic(make_traffic(cfg));
    net.run(5000);
    EXPECT_TRUE(net.drained()) << "sim_shards " << shards;
  }
  expect_edge_goldens(
      cfg, 6500, make_traffic,
      {{24480, 23705, 20806, 166448, 0x1.94d178p+22, 0x1.474d8aa4p+31, 6538,
        1450, 31, 30, 0x1.6341ecf404092p+1, 15, false},
       {24480, 23754, 20883, 167064, 0x1.9900d4p+22, 0x1.4be503d6p+31, 6556,
        1538, 33, 33, 0x1.63f08dcf3c0e4p+1, 9, false}});
}

TEST(ShardedKernel, DrainedShardedNetworkIsConsistentAcrossThreads) {
  // Burst then drain on the sharded kernel: structural invariants must hold
  // and the drained digest must match a single-threaded run.
  auto drain = [](unsigned sim_threads) {
    SimConfig cfg = sharded_config(4, RingKind::kPhysical);
    Network net(cfg);
    net.set_sim_threads(sim_threads);
    std::vector<PhasedSource::Phase> phases(1);
    phases[0].pattern = TrafficPattern::uniform();
    phases[0].load_phits = 0.05;
    phases[0].until = 1000;
    net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 12345));
    net.run(20000);
    EXPECT_TRUE(net.drained());
    EXPECT_TRUE(net.check_flow_conservation());
    EXPECT_TRUE(net.check_quiescent());
    EXPECT_TRUE(net.check_worklists());
    return digest(net);
  };
  expect_digest_eq(drain(1), drain(4));
}

// ---------------------------------------------------------------------------
// 6. Parked heads (DESIGN.md §6). A head whose route() failed while no
//    output it could use was available sits out the allocation scan until
//    one of those outputs rises, and a router whose every routable head is
//    parked is skipped whole. Parking must be exact: the mutable router(r)
//    unparks r's heads, so touching every router between cycles routes
//    every head every cycle, and the digest must not move. The rises are
//    written by parallel phases, so the differential runs at 1 and 4
//    threads (its name contains "Thread" for the CI TSAN job's filter).
// ---------------------------------------------------------------------------

struct ParkCount {
  u64 heads = 0;          ///< parked heads
  u32 whole_routers = 0;  ///< routers with every routable head parked
};

ParkCount count_parks(const Network& net) {
  ParkCount c;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    const Router& router = net.router(r);
    c.heads += router.parked_heads;
    if (router.parked_heads != 0 &&
        router.parked_heads == router.routable_heads)
      ++c.whole_routers;
  }
  return c;
}

TEST(Parking, AdversarialLoadParksHeadsAndWholeRouters) {
  for (const RoutingKind routing : {RoutingKind::kOfar, RoutingKind::kMin}) {
    SCOPED_TRACE(to_string(routing));
    SimConfig cfg;
    cfg.h = 3;
    cfg.seed = 12345;
    cfg.routing = routing;
    cfg.ring = routing == RoutingKind::kOfar ? RingKind::kPhysical
                                             : RingKind::kNone;
    Network net(cfg);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.7, cfg.seed));
    net.run(1000);  // warm-up
    ParkCount most;
    for (int i = 0; i < 200; ++i) {
      net.step();
      const ParkCount c = count_parks(std::as_const(net));
      most.heads = std::max(most.heads, c.heads);
      most.whole_routers = std::max(most.whole_routers, c.whole_routers);
    }
    EXPECT_GT(most.heads, 0u);
    // Such a router is skipped before its view is bound by the next
    // cycle's scan unless an output one of its heads waits on rises.
    EXPECT_GT(most.whole_routers, 0u);
    EXPECT_TRUE(net.check_worklists());  // audits the park state too
  }
}

struct ParkCase {
  RoutingKind routing;
  RingKind ring;
};

class ParkingDifferential : public testing::TestWithParam<ParkCase> {};

/// 1,000 cycles of `pattern` at `load`. With `forget`, every built router
/// is touched through the mutable router(r) after each cycle, which
/// unparks all its heads; the heads so unparked are counted in `forgot`.
Digest run_parking(const SimConfig& cfg, unsigned sim_threads,
                   const TrafficPattern& pattern, double load, bool forget,
                   u64* forgot = nullptr) {
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, cfg.seed));
  for (int cycle = 0; cycle < 1000; ++cycle) {
    net.step();
    if (!forget) continue;
    if (forgot != nullptr) *forgot += count_parks(std::as_const(net)).heads;
    for (RouterId r = 0; r < net.topo().routers(); ++r)
      if (net.router_built(r)) net.router(r);  // unparks r's heads
    EXPECT_EQ(count_parks(std::as_const(net)).heads, 0u);
  }
  EXPECT_TRUE(net.check_worklists());
  return digest(net);
}

TEST_P(ParkingDifferential, UnparkingEveryHeadKeepsTheDigestAtEveryThreadCount) {
  const ParkCase& pc = GetParam();
  struct Load {
    TrafficPattern pattern;
    double load;
  };
  for (const Load& l : {Load{TrafficPattern::uniform(), 1.0},
                        Load{TrafficPattern::adversarial(1), 0.7}}) {
    for (const u32 shards : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << l.pattern.describe() << " at " << l.load
                                      << ", sim_shards " << shards);
      SimConfig cfg = sharded_config(shards, pc.ring);
      cfg.routing = pc.routing;
      if (pc.routing == RoutingKind::kPar) cfg.vcs_local = 4;
      const Digest kept = run_parking(cfg, 1, l.pattern, l.load, false);
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
        u64 forgot = 0;
        expect_digest_eq(kept, run_parking(cfg, threads, l.pattern, l.load,
                                           true, &forgot));
        EXPECT_GT(forgot, 0u) << "nothing parked: the comparison is vacuous";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryMechanism, ParkingDifferential,
    testing::Values(ParkCase{RoutingKind::kMin, RingKind::kNone},
                    ParkCase{RoutingKind::kVal, RingKind::kNone},
                    ParkCase{RoutingKind::kPb, RingKind::kNone},
                    ParkCase{RoutingKind::kUgal, RingKind::kNone},
                    ParkCase{RoutingKind::kPar, RingKind::kNone},
                    ParkCase{RoutingKind::kOfar, RingKind::kPhysical},
                    ParkCase{RoutingKind::kOfar, RingKind::kEmbedded},
                    ParkCase{RoutingKind::kOfarL, RingKind::kPhysical}),
    [](const testing::TestParamInfo<ParkCase>& info) {
      std::string name = std::string(to_string(info.param.routing)) + "_" +
                         to_string(info.param.ring);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace ofar
