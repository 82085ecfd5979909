// Packet-trace-based whole-path validation: reconstruct every packet's hop
// sequence from TraceEvents and check the properties the mechanisms must
// guarantee end to end —
//  - physical consistency: each grant leaves through a real link whose far
//    side is the next hop's router, and the last router owns the
//    destination node;
//  - path-length bounds per mechanism (MIN <= 3, VAL/PB/UGAL <= 5,
//    PAR <= 6, OFAR <= 8 canonical hops);
//  - the ascending (class, VC) discipline that proves the VC-ordered
//    mechanisms deadlock-free, checked hop by hop on real traffic;
//  - OFAR misroute-flag limits: at most one global misroute per packet and
//    one local misroute per visited group.
// Also covers the LatencyHistogram percentile queries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "traffic/generator.hpp"

namespace ofar {
namespace {

struct Hop {
  RouterId router;
  PortId port;
  VcId vc;
  MisrouteKind misroute;
  bool ring_move;
};

struct PacketTrace {
  NodeId src = 0, dst = 0;
  RouterId inject_router = 0;
  std::vector<Hop> hops;
  bool delivered = false;
};

std::map<u64, PacketTrace> run_traced(SimConfig cfg,
                                      const TrafficPattern& pattern,
                                      double load, Cycle cycles) {
  Network net(cfg);
  // PacketIds are recycled; key traces by a unique incarnation counter.
  std::map<u64, PacketTrace> traces;
  std::map<PacketId, u64> live_key;
  u64 next_key = 0;
  net.set_tracer([&](const TraceEvent& ev) {
    switch (ev.kind) {
      case TraceEvent::Kind::kInject: {
        const u64 key = next_key++;
        live_key[ev.packet] = key;
        PacketTrace& t = traces[key];
        t.src = ev.src;
        t.dst = ev.dst;
        t.inject_router = ev.router;
        break;
      }
      case TraceEvent::Kind::kGrant:
        traces[live_key.at(ev.packet)].hops.push_back(
            {ev.router, ev.out_port, ev.out_vc, ev.misroute, ev.ring_move});
        break;
      case TraceEvent::Kind::kDeliver:
        traces[live_key.at(ev.packet)].delivered = true;
        live_key.erase(ev.packet);
        break;
    }
  });
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, cfg.seed));
  net.run(cycles);
  net.set_traffic(nullptr);
  u64 guard = 0;
  while (!net.drained() && ++guard < 500000) net.step();
  EXPECT_TRUE(net.drained());
  return traces;
}

/// Follows the hop list through the topology; returns false on any
/// physically impossible transition.
bool path_is_physical(const Dragonfly& topo, const PacketTrace& t) {
  RouterId cur = t.inject_router;
  for (std::size_t i = 0; i < t.hops.size(); ++i) {
    const Hop& hop = t.hops[i];
    if (hop.router != cur) return false;
    switch (topo.port_class(hop.port)) {
      case PortClass::kNode:
        // Ejection must be the last hop, at the destination router, on the
        // destination node's port.
        return i + 1 == t.hops.size() && cur == topo.router_of_node(t.dst) &&
               hop.port == topo.node_port(topo.node_slot(t.dst));
      case PortClass::kLocal:
        cur = topo.router_at(topo.group_of(cur),
                             topo.local_peer(topo.local_of(cur), hop.port));
        break;
      case PortClass::kGlobal:
        if (!topo.global_port_wired(cur, hop.port)) return false;
        cur = topo.global_peer(cur, hop.port).router;
        break;
      case PortClass::kRing:
        return true;  // physical-ring moves verified by the ring tests
    }
  }
  return false;  // never ejected
}

SimConfig traced_cfg(RoutingKind routing) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.routing = routing;
  cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
  if (routing == RoutingKind::kPar) cfg.vcs_local = 4;
  cfg.seed = 4242;
  return cfg;
}

class TracedPathTest : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(TracedPathTest, EveryPathIsPhysicalAndBounded) {
  const SimConfig cfg = traced_cfg(GetParam());
  Dragonfly topo(cfg.h);
  const auto traces =
      run_traced(cfg, TrafficPattern::adversarial(1), 0.12, 2000);
  ASSERT_GT(traces.size(), 200u);
  u32 bound = 8;
  switch (GetParam()) {
    case RoutingKind::kMin: bound = 3; break;
    case RoutingKind::kVal:
    case RoutingKind::kPb:
    case RoutingKind::kUgal: bound = 5; break;
    case RoutingKind::kPar: bound = 6; break;
    default: break;
  }
  for (const auto& [key, t] : traces) {
    ASSERT_TRUE(t.delivered);
    ASSERT_TRUE(path_is_physical(topo, t)) << "packet " << key;
    u32 router_hops = 0;
    bool rode_ring = false;
    for (const Hop& h : t.hops) {
      rode_ring |= h.ring_move;
      if (!h.ring_move && topo.port_class(h.port) != PortClass::kNode)
        ++router_hops;
    }
    if (!rode_ring) {
      EXPECT_LE(router_hops, bound) << "packet " << key;
    }
  }
}

TEST_P(TracedPathTest, OrderedVcLevelsNeverDescend) {
  const RoutingKind kind = GetParam();
  const SimConfig cfg = traced_cfg(kind);
  if (!cfg.vc_ordered()) GTEST_SKIP() << "OFAR is not VC-ordered";
  Dragonfly topo(cfg.h);
  const auto traces =
      run_traced(cfg, TrafficPattern::adversarial(1), 0.12, 2000);
  // Level order L0 < G0 < L1 < G1 < L2 (PAR: L0 < L1 < G0 < L2 < G1 < L3).
  auto level = [&](const Hop& h) -> int {
    const bool global = topo.port_class(h.port) == PortClass::kGlobal;
    if (kind == RoutingKind::kPar)
      return global ? 2 + 2 * h.vc : (h.vc <= 1 ? h.vc : 2 * h.vc - 1);
    return global ? 1 + 2 * h.vc : 2 * h.vc;
  };
  for (const auto& [key, t] : traces) {
    int prev = -1;
    for (const Hop& h : t.hops) {
      if (topo.port_class(h.port) == PortClass::kNode) break;
      const int lv = level(h);
      EXPECT_GT(lv, prev) << "packet " << key << ": VC level descended";
      prev = lv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, TracedPathTest,
    ::testing::Values(RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
                      RoutingKind::kUgal, RoutingKind::kPar,
                      RoutingKind::kOfar, RoutingKind::kOfarL),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      std::string n = to_string(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(TracedOfar, MisrouteFlagLimitsHold) {
  const SimConfig cfg = traced_cfg(RoutingKind::kOfar);
  Dragonfly topo(cfg.h);
  const auto traces =
      run_traced(cfg, TrafficPattern::adversarial(2), 0.2, 2500);
  u64 local_misroutes = 0, global_misroutes = 0;
  for (const auto& [key, t] : traces) {
    u32 global_mis = 0;
    std::map<GroupId, u32> local_mis_per_group;
    RouterId cur = t.inject_router;
    for (const Hop& h : t.hops) {
      if (h.misroute == MisrouteKind::kGlobal) {
        ++global_mis;
        ++global_misroutes;
      }
      if (h.misroute == MisrouteKind::kLocal) {
        ++local_mis_per_group[topo.group_of(cur)];
        ++local_misroutes;
      }
      // advance (canonical hops only; ring hops keep cur for flag checks)
      if (topo.port_class(h.port) == PortClass::kLocal)
        cur = topo.router_at(topo.group_of(cur),
                             topo.local_peer(topo.local_of(cur), h.port));
      else if (topo.port_class(h.port) == PortClass::kGlobal)
        cur = topo.global_peer(cur, h.port).router;
    }
    EXPECT_LE(global_mis, 1u) << "packet " << key;
    for (const auto& [group, count] : local_mis_per_group)
      EXPECT_LE(count, 1u) << "packet " << key << " group " << group;
  }
  EXPECT_GT(global_misroutes + local_misroutes, 0u);
}

// ---- latency histogram ----

TEST(LatencyHistogram, PercentilesBracketTheData) {
  LatencyHistogram hist;
  for (u64 v = 1; v <= 1000; ++v) hist.add(v);
  EXPECT_EQ(hist.total(), 1000u);
  const u64 p50 = hist.percentile(0.5);
  const u64 p99 = hist.percentile(0.99);
  // Bucketed resolution: within a factor of two of the exact quantile.
  EXPECT_GE(p50, 250u);
  EXPECT_LE(p50, 1024u);
  EXPECT_GE(p99, 512u);
  EXPECT_GE(p99, p50);
  EXPECT_EQ(hist.percentile(0.0), hist.percentile(0.0));
}

TEST(LatencyHistogram, EmptyAndSingleton) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.percentile(0.5), 0u);
  hist.add(100);
  EXPECT_GE(hist.percentile(0.5), 64u);
  EXPECT_LE(hist.percentile(0.5), 128u);
}

TEST(LatencyHistogram, WiredIntoStats) {
  Stats s;
  s.reset(0);
  s.on_delivered(8, 120, 0, 3);
  s.on_delivered(8, 130, 0, 3);
  EXPECT_EQ(s.latency_histogram().total(), 2u);
  s.reset(10);
  EXPECT_EQ(s.latency_histogram().total(), 0u);
}

}  // namespace
}  // namespace ofar
