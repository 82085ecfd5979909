#include "traffic/generator.hpp"

#include <numeric>

#include "common/check.hpp"
#include "common/ckpt_stream.hpp"
#include "sim/network.hpp"

namespace ofar {

namespace {

// One cycle's worth of per-node Bernoulli trials: draws exactly one value
// per node from `state` (plus whatever on_hit consumes), calling on_hit(n)
// for every passing node. Byte-for-byte the same draw stream as the naive
//   for n: if (state.chance(p)) { ...pick/offer using state... }
// loop, but structured for speed — this loop runs for every node every
// cycle and is the per-cycle cost floor of low-load simulations:
//  - trials compare the raw 64-bit draw against threshold << 11 (exactly
//    chance(p), see Rng::chance_threshold) — no int->double conversion;
//  - draws advance a local Rng copy whose address never reaches a call, so
//    the xoshiro state chain stays in registers;
//  - draws run in blocks of four with one rarely-taken hit test per block;
//    a block with a hit is replayed draw-by-draw from a register-copy
//    anchor so the stream position seen by on_hit is exactly the scalar
//    loop's. on_hit must draw from the Rng passed to it (the member, kept
//    in sync around the call), not from any cached copy.
template <typename OnHit>
void bernoulli_trials(Rng& state, u32 nodes, u64 threshold, OnHit&& on_hit) {
  if (threshold >= (u64{1} << 53)) {  // p >= 1: every trial passes
    for (u32 n = 0; n < nodes; ++n) {
      (void)state();
      on_hit(n);
    }
    return;
  }
  const u64 raw_threshold = threshold << 11;  // < 2^64 since threshold < 2^53
  Rng rng = state;
  u32 n = 0;
  while (n + 4 <= nodes) {
    const Rng anchor = rng;
    const u64 r0 = rng();
    const u64 r1 = rng();
    const u64 r2 = rng();
    const u64 r3 = rng();
    if (r0 < raw_threshold || r1 < raw_threshold || r2 < raw_threshold ||
        r3 < raw_threshold) {
      rng = anchor;
      for (u32 j = 0; j < 4; ++j, ++n) {
        if ((rng() >> 11) >= threshold) continue;
        state = rng;
        on_hit(n);
        rng = state;
      }
    } else {
      n += 4;
    }
  }
  for (; n < nodes; ++n) {
    if ((rng() >> 11) >= threshold) continue;
    state = rng;
    on_hit(n);
    rng = state;
  }
  state = rng;
}

}  // namespace

BernoulliSource::BernoulliSource(TrafficPattern pattern, double load_phits,
                                 u64 seed)
    : pattern_(std::move(pattern)), load_(load_phits),
      rng_(seed ^ 0x5452414646494353ULL) {}

void BernoulliSource::tick(Network& net) {
  const u64 threshold =
      Rng::chance_threshold(load_ / net.config().packet_size);
  bernoulli_trials(rng_, net.topo().nodes(), threshold, [&](u32 n) {
    net.offer(n, pattern_.pick(n, net.topo(), rng_));
  });
}

PhasedSource::PhasedSource(std::vector<Phase> phases, u64 seed)
    : phases_(std::move(phases)), rng_(seed ^ 0x504841534544ULL) {
  OFAR_CHECK(!phases_.empty());
}

void PhasedSource::tick(Network& net) {
  const Cycle now = net.now();
  const Phase* active = nullptr;
  for (const Phase& ph : phases_) {
    if (ph.until == 0 || now < ph.until) {
      active = &ph;
      break;
    }
  }
  if (active == nullptr) return;  // schedule exhausted
  const u64 threshold =
      Rng::chance_threshold(active->load_phits / net.config().packet_size);
  bernoulli_trials(rng_, net.topo().nodes(), threshold, [&](u32 n) {
    net.offer(n, active->pattern.pick(n, net.topo(), rng_));
  });
}

BurstSource::BurstSource(TrafficPattern pattern, u32 packets_per_node,
                         u64 seed)
    : pattern_(std::move(pattern)), packets_per_node_(packets_per_node),
      rng_(seed ^ 0x4255525354ULL) {}

void BurstSource::tick(Network& net) {
  if (remaining_.empty()) {
    remaining_.assign(net.topo().nodes(), packets_per_node_);
    remaining_total_ =
        static_cast<u64>(net.topo().nodes()) * packets_per_node_;
  }
  if (remaining_total_ == 0) return;
  const u32 nodes = net.topo().nodes();
  for (NodeId n = 0; n < nodes; ++n) {
    while (remaining_[n] > 0) {
      if (!net.try_inject(n, pattern_.pick(n, net.topo(), rng_))) break;
      --remaining_[n];
      --remaining_total_;
    }
  }
}

void TrafficSource::io(CkptArchive&, const Network&) {}

void BernoulliSource::io(CkptArchive& ar, const Network&) { ar.io(rng_); }

void PhasedSource::io(CkptArchive& ar, const Network&) { ar.io(rng_); }

void BurstSource::io(CkptArchive& ar, const Network& net) {
  u64 budgets = remaining_.size();
  ar.io(rng_, remaining_total_, budgets);
  // The first tick gives every node its budget; before it there are none
  // and remaining_total_ holds its nonzero placeholder.
  const bool started = budgets != 0;
  if (!ar.check(budgets == (started ? net.topo().nodes() : 0),
                "corrupt burst budgets"))
    return;
  remaining_.resize(budgets);
  ar.fixed(remaining_);
  const u64 left =
      std::accumulate(remaining_.begin(), remaining_.end(), u64{0});
  ar.check(started ? left == remaining_total_ : remaining_total_ == 1,
           "corrupt burst budgets");
}

}  // namespace ofar
