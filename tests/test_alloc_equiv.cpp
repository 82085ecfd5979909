// Equivalence suite: SeparableAllocator (packed-bitmask hot path) vs
// ReferenceAllocator (retained per-port-vector specification,
// tests/reference_allocator.hpp).
//
// The two implementations must be indistinguishable: for any request
// matrix and any starting arbiter state, they produce identical grant
// sets AND leave identical LRS arbiter state behind (last-grant cycles
// drive future picks, so grant-equal-but-state-different would diverge
// on the next cycle). The suite drives twin routers through
//
//   * randomized matrices — well over 10k across port/VC/density sweeps,
//     chained so arbiter state evolves and picks become history-dependent;
//   * exhaustive-small enumerations — every matrix over tiny geometries,
//     and every ordered pair of matrices (the second run starts from the
//     state the first one left), so no reachable two-step history is
//     missed at that size.
//
// Grant-shape invariants (at most one grant per input port and per output
// port; grants only where requests were) are asserted along the way.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "reference_allocator.hpp"
#include "sim/allocator.hpp"
#include "sim/router.hpp"

namespace ofar {
namespace {

// A router reduced to what the allocators touch: the LRS arbiter banks.
// (Geometry mirrors Network construction: one VC-level arbiter per input
// port, one input-level arbiter per output port.)
Router make_arb_router(u32 ports, u32 vcs) {
  Router r;
  r.id = 0;
  r.input_arb.reserve(ports);
  r.output_arb.reserve(ports);
  for (u32 p = 0; p < ports; ++p) {
    r.input_arb.emplace_back(vcs);
    r.output_arb.emplace_back(ports);
  }
  return r;
}

void expect_same_arbiter_state(const Router& a, const Router& b) {
  ASSERT_EQ(a.input_arb.size(), b.input_arb.size());
  ASSERT_EQ(a.output_arb.size(), b.output_arb.size());
  for (std::size_t p = 0; p < a.input_arb.size(); ++p) {
    for (u32 c = 0; c < a.input_arb[p].size(); ++c)
      ASSERT_EQ(a.input_arb[p].last_grant(c), b.input_arb[p].last_grant(c))
          << "input arbiter " << p << " candidate " << c;
    for (u32 c = 0; c < a.output_arb[p].size(); ++c)
      ASSERT_EQ(a.output_arb[p].last_grant(c), b.output_arb[p].last_grant(c))
          << "output arbiter " << p << " candidate " << c;
  }
}

void expect_grant_shape(const std::vector<AllocRequest>& reqs, u32 ports) {
  std::vector<u32> in_grants(ports, 0), out_grants(ports, 0);
  for (const AllocRequest& rq : reqs) {
    if (!rq.granted) continue;
    ++in_grants[rq.in_port];
    ++out_grants[rq.choice.out_port];
  }
  for (u32 p = 0; p < ports; ++p) {
    EXPECT_LE(in_grants[p], 1u) << "input port " << p << " granted twice";
    EXPECT_LE(out_grants[p], 1u) << "output port " << p << " granted twice";
  }
}

/// Runs one matrix through both implementations (on twin routers that have
/// experienced the identical grant history) and asserts equivalence.
void run_and_compare(SeparableAllocator& packed, ReferenceAllocator& ref,
                     Router& ra, Router& rb,
                     const std::vector<AllocRequest>& matrix, u32 iterations,
                     Cycle now) {
  std::vector<AllocRequest> a = matrix;
  std::vector<AllocRequest> b = matrix;
  packed.run(ra, a, iterations, now);
  ref.run(rb, b, iterations, now);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i].granted, b[i].granted)
        << "request " << i << " (in " << a[i].in_port << " vc "
        << static_cast<u32>(a[i].in_vc) << " -> out " << a[i].choice.out_port
        << ") at cycle " << now;
  expect_grant_shape(a, static_cast<u32>(ra.input_arb.size()));
  expect_same_arbiter_state(ra, rb);
}

/// Random request matrix: each (in, vc) slot independently requests a
/// random output with probability `density`/256. At most one request per
/// (in, vc) — the per-head invariant both allocators assume.
std::vector<AllocRequest> random_matrix(Rng& rng, u32 ports, u32 vcs,
                                        u32 density) {
  std::vector<AllocRequest> reqs;
  for (u32 in = 0; in < ports; ++in) {
    for (u32 vc = 0; vc < vcs; ++vc) {
      if (rng.below(256) >= density) continue;
      AllocRequest rq;
      rq.in_port = static_cast<PortId>(in);
      rq.in_vc = static_cast<VcId>(vc);
      rq.packet = static_cast<PacketId>(reqs.size());
      rq.choice = RouteChoice::to(static_cast<PortId>(rng.below(ports)),
                                  static_cast<VcId>(rng.below(vcs)));
      reqs.push_back(rq);
    }
  }
  return reqs;
}

TEST(AllocEquivalence, RandomizedChainedMatrices) {
  // 3 geometries x 4 densities x 1000 chained cycles = 12000 matrices,
  // each compared for grants and post-run arbiter state.
  const struct {
    u32 ports, vcs;
  } geoms[] = {{4, 2}, {8, 4}, {16, 8}};
  const u32 densities[] = {32, 96, 160, 255};  // sparse .. near-full
  Rng rng(0xA110CEULL);
  for (const auto& g : geoms) {
    for (const u32 density : densities) {
      Router ra = make_arb_router(g.ports, g.vcs);
      Router rb = make_arb_router(g.ports, g.vcs);
      SeparableAllocator packed(g.ports);
      ReferenceAllocator ref(g.ports);
      for (Cycle now = 1; now <= 1000; ++now) {
        const std::vector<AllocRequest> matrix =
            random_matrix(rng, g.ports, g.vcs, density);
        const u32 iterations = 1 + rng.below(4);
        run_and_compare(packed, ref, ra, rb, matrix, iterations, now);
      }
    }
  }
}

TEST(AllocEquivalence, RandomizedConflictHeavy) {
  // Funnel traffic: every input wants one of only two outputs, maximising
  // stage-2 contention and LRS tie-breaking pressure.
  constexpr u32 kPorts = 12, kVcs = 4;
  Rng rng(0xC0117AFFULL);
  Router ra = make_arb_router(kPorts, kVcs);
  Router rb = make_arb_router(kPorts, kVcs);
  SeparableAllocator packed(kPorts);
  ReferenceAllocator ref(kPorts);
  for (Cycle now = 1; now <= 2000; ++now) {
    std::vector<AllocRequest> matrix;
    for (u32 in = 0; in < kPorts; ++in) {
      for (u32 vc = 0; vc < kVcs; ++vc) {
        if (rng.below(256) >= 200) continue;
        AllocRequest rq;
        rq.in_port = static_cast<PortId>(in);
        rq.in_vc = static_cast<VcId>(vc);
        rq.packet = static_cast<PacketId>(matrix.size());
        rq.choice = RouteChoice::to(static_cast<PortId>(rng.below(2)), 0);
        matrix.push_back(rq);
      }
    }
    run_and_compare(packed, ref, ra, rb, matrix, 3, now);
  }
}

/// Decodes matrix index `code` in base (ports + 1): digit d for slot
/// (in, vc) means "no request" (d == 0) or "request output d - 1".
std::vector<AllocRequest> decode_matrix(u32 code, u32 ports, u32 vcs) {
  std::vector<AllocRequest> reqs;
  for (u32 in = 0; in < ports; ++in) {
    for (u32 vc = 0; vc < vcs; ++vc) {
      const u32 digit = code % (ports + 1);
      code /= ports + 1;
      if (digit == 0) continue;
      AllocRequest rq;
      rq.in_port = static_cast<PortId>(in);
      rq.in_vc = static_cast<VcId>(vc);
      rq.packet = static_cast<PacketId>(reqs.size());
      rq.choice = RouteChoice::to(static_cast<PortId>(digit - 1), 0);
      reqs.push_back(rq);
    }
  }
  return reqs;
}

u32 matrix_count(u32 ports, u32 vcs) {
  u32 n = 1;
  for (u32 s = 0; s < ports * vcs; ++s) n *= ports + 1;
  return n;
}

/// Every ordered pair of matrices over a tiny geometry, each pair run as a
/// two-cycle chain from fresh arbiters: the first run perturbs LRS state,
/// the second must still match. Covers every reachable two-step history
/// at this size, including all tie/priority interactions.
void exhaustive_pairs(u32 ports, u32 vcs, u32 iterations) {
  const u32 count = matrix_count(ports, vcs);
  for (u32 first = 0; first < count; ++first) {
    for (u32 second = 0; second < count; ++second) {
      Router ra = make_arb_router(ports, vcs);
      Router rb = make_arb_router(ports, vcs);
      SeparableAllocator packed(ports);
      ReferenceAllocator ref(ports);
      run_and_compare(packed, ref, ra, rb, decode_matrix(first, ports, vcs),
                      iterations, 1);
      if (testing::Test::HasFatalFailure()) return;
      run_and_compare(packed, ref, ra, rb, decode_matrix(second, ports, vcs),
                      iterations, 2);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(AllocEquivalence, ExhaustiveTwoPortsTwoVcs) {
  // 2 ports x 2 VCs: 3^4 = 81 matrices, 81^2 = 6561 ordered pairs.
  exhaustive_pairs(2, 2, 3);
}

TEST(AllocEquivalence, ExhaustiveThreePortsOneVc) {
  // 3 ports x 1 VC: 4^3 = 64 matrices, 64^2 = 4096 ordered pairs.
  exhaustive_pairs(3, 1, 3);
}

TEST(AllocEquivalence, ExhaustiveSingleIteration) {
  // One arbitration iteration only — the degenerate schedule where stage-2
  // losers never get a second chance; trips any divergence hidden by the
  // usual 3-iteration convergence.
  exhaustive_pairs(2, 2, 1);
}

TEST(AllocEquivalence, EmptyMatrixIsANoOp) {
  Router ra = make_arb_router(4, 2);
  Router rb = make_arb_router(4, 2);
  SeparableAllocator packed(4);
  ReferenceAllocator ref(4);
  std::vector<AllocRequest> empty;
  run_and_compare(packed, ref, ra, rb, empty, 3, 1);
}

}  // namespace
}  // namespace ofar
