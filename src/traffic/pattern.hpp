// Synthetic traffic patterns (paper §V): uniform random (UN), adversarial
// ADV+N (every node of group i sends to a random node of group i+N), and
// weighted mixtures of components (the Fig. 7 MIX workloads).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/dragonfly.hpp"

namespace ofar {

enum class PatternKind : u8 {
  kUniform,      ///< random destination anywhere (not the source node)
  kAdversarial,  ///< random destination in group (src_group + offset) % G
  kStencil2D,    ///< 2D domain decomposition, sequential rank placement:
                 ///< destination is a random von-Neumann neighbour of the
                 ///< source rank on an (nx x ny) grid over all nodes — the
                 ///< near-neighbour HPC exchange that motivates §I/§III
};

struct TrafficComponent {
  PatternKind kind = PatternKind::kUniform;
  u32 offset = 0;       ///< ADV offset; ignored for UN
  double weight = 1.0;  ///< relative selection weight in a mixture
};

class TrafficPattern {
 public:
  TrafficPattern() = default;

  static TrafficPattern uniform();
  static TrafficPattern adversarial(u32 offset);
  /// Weighted mixture; weights need not sum to 1.
  static TrafficPattern mix(std::vector<TrafficComponent> components);

  /// Picks a destination for `src`: a component by weight, then a node.
  NodeId pick(NodeId src, const Dragonfly& topo, Rng& rng) const;

  static TrafficPattern stencil2d();

  const std::vector<TrafficComponent>& components() const {
    return components_;
  }

  std::string describe() const;

 private:
  std::vector<TrafficComponent> components_;
  std::vector<double> cumulative_;  // prefix sums of weights
};

}  // namespace ofar
