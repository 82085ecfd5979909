// Unit tests for the router-microarchitecture primitives: packet pool,
// VC FIFOs (cut-through accounting), LRS arbiters, output-port credit
// queries, and the separable allocator's matching properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "sim/allocator.hpp"
#include "sim/fifo.hpp"
#include "sim/flat_state.hpp"
#include "sim/packet_pool.hpp"
#include "sim/router.hpp"

namespace ofar {
namespace {

// --------------------------------------------------------- packet pool ----

TEST(PacketPool, CreateDestroyReuse) {
  PacketPool pool;
  const PacketId a = pool.create();
  const PacketId b = pool.create();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live_count(), 2u);
  pool.destroy(a);
  EXPECT_FALSE(pool.is_live(a));
  EXPECT_EQ(pool.live_count(), 1u);
  const PacketId c = pool.create();
  EXPECT_EQ(c, a);  // slab reuse
  EXPECT_TRUE(pool.is_live(c));
}

TEST(PacketPool, ReusedSlotIsFresh) {
  PacketPool pool;
  const PacketId a = pool.create();
  pool.get(a).global_misrouted = true;
  pool.get(a).total_hops = 7;
  pool.destroy(a);
  const PacketId b = pool.create();
  ASSERT_EQ(a, b);
  EXPECT_FALSE(pool.get(b).global_misrouted);
  EXPECT_EQ(pool.get(b).total_hops, 0);
}

TEST(PacketPool, ForEachLiveVisitsExactlyLive) {
  PacketPool pool;
  std::set<PacketId> expect;
  for (int i = 0; i < 10; ++i) expect.insert(pool.create());
  for (PacketId id : {PacketId{2}, PacketId{5}}) {
    pool.destroy(id);
    expect.erase(id);
  }
  std::set<PacketId> seen;
  pool.for_each_live([&](PacketId id, const Packet&) { seen.insert(id); });
  EXPECT_EQ(seen, expect);
}

// ---------------------------------------------------------------- fifo ----

// The simulator's FIFOs index into their shard's arena; a standalone FIFO
// here indexes into a test-local ring of slots_for(capacity, 1) entries,
// which holds a full FIFO of single-phit packets.
struct TestFifo {
  explicit TestFifo(u32 capacity)
      : ring(VcFifo::slots_for(capacity, 1)),
        fifo(capacity, ring.data(), static_cast<u32>(ring.size())) {}
  std::vector<VcFifo::Entry> ring;
  VcFifo fifo;
};

TEST(VcFifo, WholePacketPushPop) {
  TestFifo t(32);
  VcFifo& f = t.fifo;
  EXPECT_TRUE(f.empty());
  f.push_whole_packet(7, 8, /*now=*/20);  // placed whole at cycle 20
  EXPECT_EQ(f.head(), 7u);
  EXPECT_EQ(f.stored_phits(20, false), 8u);
  EXPECT_EQ(f.arrived(f.entry(0), 20), 8u);
  f.start_send(28);  // granted at 20: its phits leave at 21..28
  for (u32 c = 20; c <= 28; ++c) EXPECT_EQ(f.stored_phits(c, true), 28 - c);
  f.pop();  // the tail left: the entry goes
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.stored_phits(28, false), 0u);
}

TEST(VcFifo, CutThroughArrivalWhileDraining) {
  TestFifo t(32);
  VcFifo& f = t.fifo;
  f.push(3, 4, /*arrive=*/10);  // head phit at 10, the rest at 11..13
  EXPECT_EQ(f.arrived(f.entry(0), 10), 1u);
  f.start_send(14);  // granted at 10 on its head alone (cut-through)
  for (u32 c = 10; c <= 13; ++c) {
    EXPECT_EQ(f.arrived(f.entry(0), c), c - 9);
    EXPECT_EQ(f.head_sent(c), c - 10);
    EXPECT_EQ(f.stored_phits(c, true), 1u);  // one phit in, one out
  }
  EXPECT_EQ(f.arrived(f.entry(0), 14), 4u);
  EXPECT_EQ(f.head_sent(14), 4u);
  f.pop();
  EXPECT_TRUE(f.empty());
}

TEST(VcFifo, MultiplePacketsFifoOrder) {
  TestFifo t(32);
  VcFifo& f = t.fifo;
  f.push_whole_packet(1, 8);
  f.push_whole_packet(2, 8);
  f.push_whole_packet(3, 8);
  EXPECT_EQ(f.num_packets(), 3u);
  EXPECT_EQ(f.stored_phits(0, false), 24u);
  f.start_send(8);
  EXPECT_EQ(f.stored_phits(4, true), 20u);
  f.pop();
  EXPECT_EQ(f.head(), 2u);
  EXPECT_EQ(f.stored_phits(8, false), 16u);
  f.start_send(16);
  f.pop();
  EXPECT_EQ(f.head(), 3u);
}

TEST(VcFifo, RingBufferWrapsAround) {
  TestFifo t(16);  // small ring, exercise wrap
  VcFifo& f = t.fifo;
  for (u32 round = 0; round < 100; ++round) {
    f.push_whole_packet(round, 4);
    f.push_whole_packet(round + 1000, 4);
    f.pop();
    EXPECT_EQ(f.head(), round + 1000);
    f.pop();
    EXPECT_TRUE(f.empty());
  }
}

TEST(VcFifo, SinglePhitPackets) {
  TestFifo t(8);
  VcFifo& f = t.fifo;
  for (u32 i = 0; i < 8; ++i) f.push_whole_packet(i, 1);
  EXPECT_EQ(f.num_packets(), 8u);
  EXPECT_EQ(f.stored_phits(0, false), 8u);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(f.head(), i);
    f.pop();
  }
  EXPECT_TRUE(f.empty());
}

TEST(VcFifo, StampsWrapAcrossTwoToThe32) {
  // Two packets cross the wrap of the u32 cycle stamps: the first arrives
  // from four cycles before it and streams on at once (cut-through), the
  // second arrives after it and streams once the first has left. At every
  // cycle the FIFO stores what a per-phit count says.
  TestFifo t(32);
  VcFifo& f = t.fifo;
  const u64 base = (u64{1} << 32) - 4;
  const auto phits_in = [](u64 c, u64 arrive, u64 grant) {
    const u64 arrived = c < arrive ? 0 : std::min<u64>(8, c - arrive + 1);
    const u64 sent = c <= grant ? 0 : std::min<u64>(8, c - grant);
    return arrived - sent;
  };
  bool streams = false;
  for (u64 c = base; c <= base + 18; ++c) {
    const u32 now = static_cast<u32>(c);
    if (c == base) f.push(1, 8, now);
    if (c == base + 2) {
      f.start_send(now + 8);
      streams = true;
    }
    if (c == base + 8) f.push(2, 8, now);
    if (c == base + 10) {
      f.pop();
      f.start_send(now + 8);
    }
    if (c == base + 18) {
      f.pop();
      streams = false;
    }
    const u64 expect = (c < base + 10 ? phits_in(c, base, base + 2) : 0) +
                       (c < base + 18 ? phits_in(c, base + 8, base + 10) : 0);
    EXPECT_EQ(f.stored_phits(now, streams), expect) << "cycle " << c;
  }
  EXPECT_TRUE(f.empty());
}

// ------------------------------------------------------------- arbiter ----

TEST(LrsArbiter, PicksLeastRecentlyServed) {
  LrsArbiter arb(4);
  const std::array<u32, 3> reqs = {0, 1, 2};
  // Fresh arbiter: ties broken by lowest index.
  EXPECT_EQ(arb.pick(reqs), 0u);
  arb.grant(0, 10);
  EXPECT_EQ(arb.pick(reqs), 1u);
  arb.grant(1, 11);
  EXPECT_EQ(arb.pick(reqs), 2u);
  arb.grant(2, 12);
  EXPECT_EQ(arb.pick(reqs), 0u);  // oldest grant again
}

TEST(LrsArbiter, IsStarvationFreeUnderPersistentLoad) {
  LrsArbiter arb(3);
  const std::array<u32, 3> reqs = {0, 1, 2};
  std::array<int, 3> grants{};
  // Start at t=1: a grant at t=0 is indistinguishable from "never granted".
  for (Cycle t = 1; t <= 300; ++t) {
    const u32 w = arb.pick(reqs);
    arb.grant(w, t);
    ++grants[w];
  }
  for (int g : grants) EXPECT_EQ(g, 100);
}

// ----------------------------------------------------------- allocator ----

// Router fixture owning its backing store. In the simulator the SoA arena
// lives in the shard (ShardState::arena) and is shared by every router of
// that shard; unit tests give each router a private arena instead. The
// arena's chunk pools hand out stable addresses, so the Router's Span
// views stay valid across moves of the fixture.
struct TestRouter : Router {
  ShardArena arena;
};

TestRouter make_router(u32 ports, u32 vcs) {
  TestRouter r;
  r.inputs.resize(ports);
  r.outputs.resize(ports);
  r.input_mask.assign(ports, 0);
  for (u32 p = 0; p < ports; ++p) {
    r.arena.bind_inputs(r, static_cast<PortId>(p), vcs, 32,
                        VcFifo::slots_for(32, 1));
    r.input_arb.emplace_back(vcs);
    r.output_arb.emplace_back(ports);
  }
  return r;
}

AllocRequest make_req(PortId in, VcId vc, PortId out) {
  AllocRequest rq;
  rq.in_port = in;
  rq.in_vc = vc;
  rq.packet = 1;
  rq.choice = RouteChoice::to(out, 0);
  return rq;
}

TEST(SeparableAllocator, GrantsNonConflictingRequests) {
  TestRouter r = make_router(4, 2);
  SeparableAllocator alloc(4);
  std::vector<AllocRequest> reqs = {make_req(0, 0, 2), make_req(1, 0, 3)};
  alloc.run(r, reqs, 3, 1);
  EXPECT_TRUE(reqs[0].granted);
  EXPECT_TRUE(reqs[1].granted);
}

TEST(SeparableAllocator, OneGrantPerOutput) {
  TestRouter r = make_router(4, 2);
  SeparableAllocator alloc(4);
  std::vector<AllocRequest> reqs = {make_req(0, 0, 2), make_req(1, 0, 2),
                                    make_req(3, 0, 2)};
  alloc.run(r, reqs, 3, 1);
  int granted = 0;
  for (const auto& rq : reqs) granted += rq.granted;
  EXPECT_EQ(granted, 1);
}

TEST(SeparableAllocator, OneGrantPerInput) {
  TestRouter r = make_router(4, 3);
  SeparableAllocator alloc(4);
  std::vector<AllocRequest> reqs = {make_req(0, 0, 1), make_req(0, 1, 2),
                                    make_req(0, 2, 3)};
  alloc.run(r, reqs, 3, 1);
  int granted = 0;
  for (const auto& rq : reqs) granted += rq.granted;
  EXPECT_EQ(granted, 1);
}

TEST(SeparableAllocator, IterationsRecoverFromStage1Conflicts) {
  // Input 0 has two VCs wanting outputs 1 and 2; input 1 wants output 1.
  // Bias output 1's LRS arbiter so input 1 wins it: input 0 then loses in
  // stage 2 and a second iteration must match its output-2 request.
  TestRouter r = make_router(4, 2);
  r.output_arb[1].grant(0, 1);  // input 0 was served recently on output 1
  SeparableAllocator alloc(4);
  std::vector<AllocRequest> reqs = {make_req(0, 0, 1), make_req(0, 1, 2),
                                    make_req(1, 0, 1)};
  alloc.run(r, reqs, 3, 2);
  int granted = 0;
  for (const auto& rq : reqs) granted += rq.granted;
  EXPECT_EQ(granted, 2);  // both outputs matched with 3 iterations
  EXPECT_TRUE(reqs[1].granted);  // input 0 recovered via its VC-1 request
  EXPECT_TRUE(reqs[2].granted);  // input 1 won output 1
}

TEST(SeparableAllocator, SingleIterationMayLeaveWork) {
  TestRouter r = make_router(4, 2);
  SeparableAllocator alloc(4);
  // LRS tie-break sends input 0's VC0 (to output 1) first; with one
  // iteration the out-2 request cannot be retried.
  std::vector<AllocRequest> reqs = {make_req(0, 0, 1), make_req(0, 1, 2),
                                    make_req(1, 0, 1)};
  alloc.run(r, reqs, 1, 1);
  int granted = 0;
  for (const auto& rq : reqs) granted += rq.granted;
  EXPECT_LE(granted, 2);
  EXPECT_GE(granted, 1);
}

TEST(SeparableAllocator, FairAcrossInputsOverTime) {
  TestRouter r = make_router(3, 1);
  SeparableAllocator alloc(3);
  std::array<int, 2> wins{};
  for (Cycle t = 1; t <= 100; ++t) {
    std::vector<AllocRequest> reqs = {make_req(0, 0, 2), make_req(1, 0, 2)};
    alloc.run(r, reqs, 3, t);
    if (reqs[0].granted) ++wins[0];
    if (reqs[1].granted) ++wins[1];
  }
  EXPECT_EQ(wins[0] + wins[1], 100);
  EXPECT_EQ(wins[0], 50);
  EXPECT_EQ(wins[1], 50);
}

TEST(SeparableAllocator, ScratchIsCleanAcrossRuns) {
  TestRouter r = make_router(4, 2);
  SeparableAllocator alloc(4);
  std::vector<AllocRequest> first = {make_req(0, 0, 3)};
  alloc.run(r, first, 3, 1);
  ASSERT_TRUE(first[0].granted);
  // A second run with a different shape must not see stale lanes.
  std::vector<AllocRequest> second = {make_req(1, 1, 2)};
  alloc.run(r, second, 3, 2);
  EXPECT_TRUE(second[0].granted);
}

// ---------------------------------------------------------- output port ----

// Standalone OutputPort with locally-owned credit arrays (the Span views
// normally point into Router's pools; here the fixture is the pool).
struct TestOutput {
  std::vector<u32> credits_store;
  std::vector<u32> cap_store;
  std::vector<u32> ramp_store;
  OutputPort out;

  TestOutput(std::vector<u32> credits, std::vector<u32> caps)
      : credits_store(std::move(credits)),
        cap_store(std::move(caps)),
        ramp_store(credits_store.size(), 0) {
    out.credits = Span<u32>(credits_store.data(),
                            static_cast<u32>(credits_store.size()));
    out.credit_cap =
        Span<u32>(cap_store.data(), static_cast<u32>(cap_store.size()));
    out.ramp_end =
        Span<u32>(ramp_store.data(), static_cast<u32>(ramp_store.size()));
  }
};

TEST(OutputPort, BestVcPicksMostCredits) {
  TestOutput t({5, 20, 11}, {32, 32, 32});
  t.out.channel = 1;
  VcId vc;
  ASSERT_TRUE(t.out.best_vc(0, 3, 8, 100, vc));
  EXPECT_EQ(vc, 1);
  ASSERT_TRUE(t.out.best_vc(2, 1, 8, 100, vc));  // restricted range
  EXPECT_EQ(vc, 2);
  EXPECT_FALSE(t.out.best_vc(0, 1, 8, 100, vc));  // vc0 has only 5 credits
  // A ramp to vc1 whose last credit lands at 110: at 100 ten of its
  // credits are still to come, so vc2 has the most.
  t.ramp_store[1] = 110;
  EXPECT_EQ(t.out.credit(1, 100), 10u);
  ASSERT_TRUE(t.out.best_vc(0, 3, 8, 100, vc));
  EXPECT_EQ(vc, 2);
}

TEST(OutputPort, OccupancyFraction) {
  TestOutput t({16, 32}, {32, 32});
  EXPECT_DOUBLE_EQ(t.out.occupancy(0, 2, 0), 0.25);
  EXPECT_DOUBLE_EQ(t.out.occupancy(0, 1, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.out.occupancy(1, 1, 0), 0.0);
  EXPECT_EQ(t.out.queued_phits(0, 2, 0), 16u);
}

TEST(OutputPort, RampLandsOneCreditPerCycle) {
  // credits[] holds the value once the ramp landed; the ramp's last
  // credit lands at 57, one per cycle before it.
  TestOutput t({24}, {32});
  t.ramp_store[0] = 57;
  EXPECT_EQ(t.out.credit(0, 50), 17u);
  for (u32 c = 50; c < 57; ++c)
    EXPECT_EQ(t.out.credit(0, c + 1), t.out.credit(0, c) + 1) << c;
  EXPECT_EQ(t.out.credit(0, 57), 24u);
  EXPECT_EQ(t.out.pending(0, 57), 0u);
  EXPECT_EQ(t.out.credit(0, 1000), 24u);  // landed long ago
  EXPECT_DOUBLE_EQ(t.out.occupancy(0, 1, 56), 1.0 - 23.0 / 32.0);
  EXPECT_EQ(t.out.queued_phits(0, 1, 56), 9u);
}

// ----------------------------------------------------------- input port ----

TEST(InputPort, BestFitVcPrefersEmptiestFittingVc) {
  TestRouter r = make_router(1, 3);  // three VCs of capacity 32
  InputPort& in = r.inputs[0];
  in.vcs[0].push_whole_packet(1, 28);  // 4 free: cannot fit an 8-phit packet
  in.vcs[2].push_whole_packet(2, 8);   // 24 free
  u32 vc;
  ASSERT_TRUE(in.best_fit_vc(8, vc));
  EXPECT_EQ(vc, 1u);  // 32 free beats 24 free
  in.vcs[1].push_whole_packet(3, 16);  // now 16 free < vc2's 24
  ASSERT_TRUE(in.best_fit_vc(8, vc));
  EXPECT_EQ(vc, 2u);
}

TEST(InputPort, BestFitVcFailsWhenFull) {
  TestRouter r = make_router(1, 2);
  InputPort& in = r.inputs[0];
  in.vcs[0].push_whole_packet(1, 30);
  in.vcs[1].push_whole_packet(2, 26);
  u32 vc;
  EXPECT_FALSE(in.best_fit_vc(8, vc));  // 2 and 6 phits free
  EXPECT_EQ(vc, kInvalidIndex);
  EXPECT_TRUE(in.best_fit_vc(6, vc));  // exact fit qualifies
  EXPECT_EQ(vc, 1u);
}

// ----------------------------------------------------------- SoA arenas ----

TEST(ShardArena, InputBindingIsContiguousAndPortMajor) {
  TestRouter r = make_router(3, 2);
  ASSERT_EQ(r.arena.fifos.size(), 6u);
  ASSERT_EQ(r.arena.head_busy.size(), 6u);
  // Sequential binds that fit one chunk stay contiguous and port-major, so
  // a shard's allocation scan still walks flat arrays.
  for (u32 p = 0; p < 3; ++p) {
    EXPECT_EQ(r.inputs[p].vcs.data(), r.inputs[0].vcs.data() + p * 2);
    EXPECT_EQ(r.inputs[p].head_busy.data(),
              r.inputs[0].head_busy.data() + p * 2);
    EXPECT_EQ(r.inputs[p].vcs.size(), 2u);
  }
  // Writes through one port's view are visible through the flat layout.
  r.inputs[1].head_busy[1] = 1;
  EXPECT_EQ(r.inputs[0].head_busy.data()[3], 1u);
  // Every FIFO owns a distinct zeroed ring slice of the requested size.
  for (u32 p = 0; p < 3; ++p)
    for (u32 v = 0; v < 2; ++v) {
      const VcFifo& f = r.inputs[p].vcs[v];
      EXPECT_NE(f.slots(), nullptr);
      EXPECT_TRUE(f.empty());
      for (u32 q = 0; q < 3; ++q)
        for (u32 w = 0; w < 2; ++w) {
          if (q != p || w != v) {
            EXPECT_NE(f.slots(), r.inputs[q].vcs[w].slots());
          }
        }
    }
}

TEST(ShardArena, CreditBindingIsContiguous) {
  TestRouter r = make_router(2, 2);
  r.arena.bind_credits(r, 0, 2, 32);
  r.arena.bind_credits(r, 1, 2, 16);
  ASSERT_EQ(r.arena.credits.size(), 4u);
  // Sequential binds within one chunk are adjacent.
  EXPECT_EQ(r.outputs[1].credits.data(), r.outputs[0].credits.data() + 2);
  EXPECT_EQ(r.outputs[1].credits[0], 16u);
  EXPECT_EQ(r.outputs[1].credit_cap[1], 16u);
  // Writes through the view land in the shared backing store.
  r.outputs[0].credits[1] = 7;
  EXPECT_EQ(r.outputs[0].credits.data()[1], 7u);
}

#ifndef NDEBUG
TEST(VcFifoDeathTest, PushBeyondCapacityTripsDcheck) {
  TestFifo t(32);
  EXPECT_DEATH(t.fifo.push_whole_packet(1, 33), "capacity");
}
#endif

}  // namespace
}  // namespace ofar
