// UGAL-L (Kim et al., ISCA'08; referenced by the paper §II): injection-time
// choice between the minimal path and one random Valiant path, using only
// the local queue occupancies of the injection router:
//
//     route minimally  iff  q_min * H_min <= q_val * H_val + T.
//
// PB extends exactly this comparison with the piggybacked remote saturation
// flag, and PAR re-applies it in transit, so the rule lives here and is
// shared.
#pragma once

#include "common/phase.hpp"
#include "common/rng.hpp"
#include "routing/valiant.hpp"

namespace ofar {

/// UGAL's rule for a packet at router `at`: draw one random Valiant
/// intermediate from `rng` and take it, unless the minimal path wins the
/// comparison with bias T = `bias` phits and is not `minimal_vetoed` (PB's
/// saturated-link flag). Returns none (route minimally) at the destination
/// router, or when no intermediate exists.
/// Parallel-legal: draws only from the caller-supplied stream — serial
/// callers (UGAL/PB on_inject) pass the sequential rng_, PAR's route()
/// passes route_rng(lane).
OFAR_PARALLEL_PHASE Intermediate ugal_intermediate(const Network& net,
                                                   const Packet& pkt,
                                                   RouterId at, Rng& rng,
                                                   i32 bias,
                                                   bool minimal_vetoed = false);

class UgalPolicy final : public ValiantPolicy {
 public:
  explicit UgalPolicy(const SimConfig& cfg);

  const char* name() const noexcept override { return "UGAL"; }

  void on_inject(Network& net, Packet& pkt, RouterId at) override;

 private:
  i32 bias_;
};

}  // namespace ofar
