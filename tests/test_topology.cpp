// Unit + property tests for the dragonfly topology: coordinate algebra
// (and the multiply-shift divider under it), port layout, global wiring
// symmetry, minimal-route correctness, and the §III structural pathology
// (ADV+h funnels all transit traffic of a group pair through one local
// link).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/divisor.hpp"
#include "common/rng.hpp"
#include "topology/dragonfly.hpp"

namespace ofar {
namespace {

TEST(Dragonfly, PaperScaleCounts) {
  Dragonfly d(6);
  EXPECT_EQ(d.groups(), 73u);
  EXPECT_EQ(d.routers(), 876u);
  EXPECT_EQ(d.nodes(), 5256u);
  EXPECT_EQ(d.ports_per_router(), 23u);  // 6 node + 11 local + 6 global
  Dragonfly with_ring(6, 0, /*physical_ring=*/true);
  EXPECT_EQ(with_ring.ports_per_router(), 24u);
}

TEST(Dragonfly, SampleTopologyOfFigure1) {
  Dragonfly d(2);  // the paper's Fig. 1: h=2 -> 36 routers, 72 nodes
  EXPECT_EQ(d.groups(), 9u);
  EXPECT_EQ(d.routers(), 36u);
  EXPECT_EQ(d.nodes(), 72u);
}

TEST(Dragonfly, CoordinateRoundTrip) {
  Dragonfly d(3);
  for (RouterId r = 0; r < d.routers(); ++r) {
    EXPECT_EQ(d.router_at(d.group_of(r), d.local_of(r)), r);
    for (u32 s = 0; s < d.p(); ++s) {
      const NodeId n = d.node_at(r, s);
      EXPECT_EQ(d.router_of_node(n), r);
      EXPECT_EQ(d.node_slot(n), s);
    }
  }
}

TEST(Divisor, MatchesHardwareDivisionForEverySimulatorDivisor) {
  // The divisors the simulator divides by at h = 1..16: h (= p), a = 2h,
  // and the ports per router without and with the physical ring.
  std::set<u32> divisors;
  for (u32 h = 1; h <= 16; ++h)
    for (const u32 d : {h, 2 * h, 4 * h - 1, 4 * h}) divisors.insert(d);
  Rng rng(20260419);
  for (const u32 d : divisors) {
    SCOPED_TRACE(testing::Message() << "divisor " << d);
    const Divisor div(d);
    EXPECT_EQ(div.value(), d);
    std::vector<u32> numerators = {0, d - 1, d, d + 1, ~u32{0},
                                   ~u32{0} - 1, d * d, 65535, 65536};
    for (int i = 0; i < 2000; ++i)
      numerators.push_back(static_cast<u32>(rng()));
    for (int i = 0; i < 500; ++i)  // small ids, the common case
      numerators.push_back(rng.below(1u << 20));
    for (const u32 n : numerators) {
      ASSERT_EQ(div.div(n), n / d) << n;
      ASSERT_EQ(div.mod(n), n % d) << n;
    }
  }
}

TEST(Dragonfly, CoordinateHelpersMatchNaiveFormulas) {
  for (u32 h = 1; h <= 4; ++h) {
    const u32 a = 2 * h;
    for (const u32 trimmed : {0u, 2u, 3u, h * h + 1}) {
      const Dragonfly d(h, trimmed);
      const u32 groups = d.groups();
      SCOPED_TRACE(testing::Message() << "h " << h << ", groups " << groups);
      for (RouterId r = 0; r < d.routers(); ++r) {
        ASSERT_EQ(d.group_of(r), r / a);
        ASSERT_EQ(d.local_of(r), r % a);
      }
      for (NodeId n = 0; n < d.nodes(); ++n) {
        ASSERT_EQ(d.router_of_node(n), n / h);
        ASSERT_EQ(d.node_slot(n), n % h);
        ASSERT_EQ(d.group_of_node(n), n / h / a);
      }
      for (u32 slot = 0; slot < a * h; ++slot) {
        ASSERT_EQ(d.slot_carrier(slot), slot / h);
        ASSERT_EQ(d.slot_port(slot), d.first_global_port() + slot % h);
      }
      for (GroupId from = 0; from < groups; ++from) {
        for (GroupId to = 0; to < groups; ++to) {
          if (to == from) continue;
          ASSERT_EQ(d.global_slot(from, to),
                    (to + groups - from - 1) % groups);
        }
        for (u32 slot = 0; d.slot_wired(slot); ++slot)
          ASSERT_EQ(d.slot_target(from, slot), (from + slot + 1) % groups);
      }
    }
  }
}

// OFAR's global misroute candidates skip no destination-group port
// (core/ofar_routing.cpp): this fact makes that filter redundant.
TEST(Dragonfly, GlobalPortIntoAGroupIsItsMinimalPort) {
  for (u32 h = 1; h <= 6; ++h) {
    for (const u32 trimmed : {0u, 2u, h + 2, h * h + 1}) {
      const Dragonfly d(h, trimmed);
      SCOPED_TRACE(testing::Message() << "h " << h << ", groups "
                                      << d.groups());
      for (RouterId r = 0; r < d.routers(); ++r) {
        const GroupId here = d.group_of(r);
        std::map<GroupId, PortId> into;  // target group -> global port
        for (u32 j = 0; j < h; ++j) {
          const PortId port = static_cast<PortId>(d.first_global_port() + j);
          if (!d.global_port_wired(r, port)) continue;
          const GroupId g =
              d.slot_target(here, d.port_slot(d.local_of(r), port));
          ASSERT_NE(g, here);
          ASSERT_TRUE(into.emplace(g, port).second)
              << "r" << r << " has two global ports into group " << g;
        }
        for (const auto& [g, port] : into)
          for (u32 l = 0; l < d.a(); ++l)
            ASSERT_EQ(d.min_next_port(r, d.router_at(g, l)), port)
                << "r" << r << " toward group " << g;
      }
    }
  }
}

TEST(Dragonfly, PortClassLayout) {
  Dragonfly d(3, 0, true);
  u32 nodep = 0, localp = 0, globalp = 0, ringp = 0;
  for (PortId p = 0; p < d.ports_per_router(); ++p) {
    switch (d.port_class(p)) {
      case PortClass::kNode: ++nodep; break;
      case PortClass::kLocal: ++localp; break;
      case PortClass::kGlobal: ++globalp; break;
      case PortClass::kRing: ++ringp; break;
    }
  }
  EXPECT_EQ(nodep, d.p());
  EXPECT_EQ(localp, d.a() - 1);
  EXPECT_EQ(globalp, d.h());
  EXPECT_EQ(ringp, 1u);
}

TEST(Dragonfly, LocalPortPeerInverse) {
  Dragonfly d(3);
  for (u32 from = 0; from < d.a(); ++from)
    for (u32 to = 0; to < d.a(); ++to) {
      if (from == to) continue;
      const PortId p = d.local_port(from, to);
      EXPECT_EQ(d.port_class(p), PortClass::kLocal);
      EXPECT_EQ(d.local_peer(from, p), to);
    }
}

TEST(Dragonfly, GlobalSlotBijection) {
  Dragonfly d(3);
  for (GroupId a = 0; a < d.groups(); ++a)
    for (GroupId b = 0; b < d.groups(); ++b) {
      if (a == b) continue;
      const u32 slot = d.global_slot(a, b);
      EXPECT_TRUE(d.slot_wired(slot));
      EXPECT_EQ(d.slot_target(a, slot), b);
      // The far side points back with the mirrored slot.
      const u32 back = d.peer_slot(slot);
      EXPECT_EQ(d.global_slot(b, a), back);
      EXPECT_EQ(d.peer_slot(back), slot);
    }
}

TEST(Dragonfly, GlobalPeerIsInvolution) {
  Dragonfly d(2);
  for (RouterId r = 0; r < d.routers(); ++r) {
    const PortId first = d.first_global_port();
    for (PortId p = first; p < first + d.h(); ++p) {
      ASSERT_TRUE(d.global_port_wired(r, p));
      const auto far = d.global_peer(r, p);
      EXPECT_NE(d.group_of(far.router), d.group_of(r));
      const auto back = d.global_peer(far.router, far.port);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST(Dragonfly, ExactlyOneGlobalLinkPerGroupPair) {
  Dragonfly d(2);
  std::map<std::pair<GroupId, GroupId>, int> links;
  for (RouterId r = 0; r < d.routers(); ++r) {
    const PortId first = d.first_global_port();
    for (PortId p = first; p < first + d.h(); ++p) {
      const auto far = d.global_peer(r, p);
      GroupId ga = d.group_of(r), gb = d.group_of(far.router);
      if (ga > gb) std::swap(ga, gb);
      links[{ga, gb}] += 1;  // counted once per direction
    }
  }
  EXPECT_EQ(links.size(),
            static_cast<std::size_t>(d.groups()) * (d.groups() - 1) / 2);
  for (const auto& [pair, count] : links) EXPECT_EQ(count, 2) << pair.first;
}

TEST(Dragonfly, CarrierRouterOwnsTheLink) {
  Dragonfly d(3);
  for (GroupId a = 0; a < d.groups(); ++a)
    for (GroupId b = 0; b < d.groups(); ++b) {
      if (a == b) continue;
      const RouterId c = d.carrier_router(a, b);
      EXPECT_EQ(d.group_of(c), a);
      const auto far = d.global_peer(c, d.carrier_port(a, b));
      EXPECT_EQ(d.group_of(far.router), b);
      EXPECT_EQ(far.router, d.carrier_router(b, a));
    }
}

TEST(Dragonfly, TrimmedTopologyLeavesHighSlotsUnwired) {
  Dragonfly d(3, 7);  // 7 of max 19 groups
  EXPECT_EQ(d.groups(), 7u);
  u32 wired = 0, unwired = 0;
  for (RouterId r = 0; r < d.routers(); ++r) {
    const PortId first = d.first_global_port();
    for (PortId p = first; p < first + d.h(); ++p)
      d.global_port_wired(r, p) ? ++wired : ++unwired;
  }
  // groups-1 = 6 wired slots per group of the a*h = 18 total.
  EXPECT_EQ(wired, d.groups() * (d.groups() - 1));
  EXPECT_EQ(unwired, d.groups() * (d.a() * d.h() - (d.groups() - 1)));
}

// ---- minimal routing ----

class MinRouteTest : public ::testing::TestWithParam<u32> {};

TEST_P(MinRouteTest, WalkReachesDestinationWithinThreeHops) {
  Dragonfly d(GetParam());
  for (RouterId from = 0; from < d.routers(); ++from) {
    for (RouterId to = 0; to < d.routers(); ++to) {
      if (from == to) continue;
      RouterId cur = from;
      u32 hops = 0;
      while (cur != to) {
        ASSERT_LE(++hops, 3u) << "minimal path too long " << from << "->"
                              << to;
        const PortId p = d.min_next_port(cur, to);
        if (d.port_class(p) == PortClass::kLocal) {
          cur = d.router_at(d.group_of(cur),
                            d.local_peer(d.local_of(cur), p));
        } else {
          ASSERT_EQ(d.port_class(p), PortClass::kGlobal);
          cur = d.global_peer(cur, p).router;
        }
      }
      EXPECT_EQ(hops, d.min_hops(from, to));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallRadixes, MinRouteTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(Dragonfly, MinHopsProperties) {
  Dragonfly d(3);
  for (RouterId r = 0; r < d.routers(); ++r) EXPECT_EQ(d.min_hops(r, r), 0u);
  // Same group: always exactly one hop.
  EXPECT_EQ(d.min_hops(d.router_at(2, 0), d.router_at(2, 5)), 1u);
  // Carrier to far carrier: exactly one (global) hop.
  const RouterId c = d.carrier_router(0, 5);
  const RouterId f = d.carrier_router(5, 0);
  EXPECT_EQ(d.min_hops(c, f), 1u);
}

// ---- the §III pathology: consecutive wiring funnels ADV+h traffic ----

TEST(Dragonfly, AdvPlusHFunnelsThroughOneLocalLink) {
  // For every transit group X and source group i (dest i+h), the entry
  // carrier of link i->X and the exit carrier of link X->(i+h) must be
  // consecutive routers: all that traffic shares local link c -> c+1.
  Dragonfly d(4);
  const u32 h = d.h();
  for (GroupId x = 0; x < d.groups(); ++x) {
    for (GroupId i = 0; i < d.groups(); ++i) {
      const GroupId dst = (i + h) % d.groups();
      if (i == x || dst == x || i == dst) continue;
      const u32 in_slot = d.global_slot(i, x);
      const u32 entry = d.slot_carrier(d.peer_slot(in_slot));
      const u32 exit = d.slot_carrier(d.global_slot(x, dst));
      // Consecutive arrangement: out slot = in-side slot + h (mod wrap),
      // so the exit carrier is the entry carrier + 1 except at the wrap.
      if (d.peer_slot(in_slot) + h < d.a() * h &&
          d.peer_slot(in_slot) + h == d.global_slot(x, dst)) {
        EXPECT_EQ(exit, entry + 1);
      }
    }
  }
}

TEST(Dragonfly, DescribeMentionsScale) {
  Dragonfly d(2);
  const std::string s = d.describe();
  EXPECT_NE(s.find("h=2"), std::string::npos);
  EXPECT_NE(s.find("routers=36"), std::string::npos);
}

}  // namespace
}  // namespace ofar
