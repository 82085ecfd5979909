// Traffic sources: the Network calls tick() once per cycle before draining
// per-node pending queues into injection FIFOs.
//
//  - BernoulliSource: each node generates a packet with probability
//    load / packet_size per cycle (paper §V).
//  - PhasedSource: schedule of (pattern, load, until_cycle) phases — the
//    transient experiments of Fig. 6 switch patterns at a cycle boundary.
//  - BurstSource: every node has a fixed budget of packets injected as fast
//    as injection-queue space allows (Fig. 7 burst consumption).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "traffic/pattern.hpp"

namespace ofar {

class Network;
class CkptArchive;

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  /// Generates this cycle's offers / injections into `net`.
  virtual void tick(Network& net) = 0;
  /// True when the source will never generate again (burst exhausted).
  virtual bool finished() const { return false; }

  /// Checkpoint hook (core/checkpoint.hpp): passes the source's mutable
  /// state (RNG stream, burst budgets) through `ar`, which saves or
  /// restores it, so a restored run generates the exact same offer
  /// sequence. State whose size `net` fixes is checked against it. The
  /// default has no state.
  virtual void io(CkptArchive& ar, const Network& net);
};

class BernoulliSource : public TrafficSource {
 public:
  BernoulliSource(TrafficPattern pattern, double load_phits, u64 seed);
  void tick(Network& net) override;

  void io(CkptArchive& ar, const Network& net) override;

 private:
  TrafficPattern pattern_;
  double load_;
  Rng rng_;
};

class PhasedSource : public TrafficSource {
 public:
  struct Phase {
    TrafficPattern pattern;
    double load_phits = 0.1;
    Cycle until = 0;  ///< phase active while now < until; last phase may be 0
                      ///< meaning "forever"
  };

  PhasedSource(std::vector<Phase> phases, u64 seed);
  void tick(Network& net) override;
  void io(CkptArchive& ar, const Network& net) override;

 private:
  std::vector<Phase> phases_;
  Rng rng_;
};

class BurstSource : public TrafficSource {
 public:
  BurstSource(TrafficPattern pattern, u32 packets_per_node, u64 seed);
  void tick(Network& net) override;
  bool finished() const override { return remaining_total_ == 0; }

  void io(CkptArchive& ar, const Network& net) override;

 private:
  TrafficPattern pattern_;
  u32 packets_per_node_ = 0;
  std::vector<u32> remaining_;  // per node (lazily sized on first tick)
  u64 remaining_total_ = 1;     // nonzero until the burst is initialised
  Rng rng_;
};

}  // namespace ofar
