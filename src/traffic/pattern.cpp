#include "traffic/pattern.hpp"

#include <sstream>

#include "common/check.hpp"

namespace ofar {

TrafficPattern TrafficPattern::uniform() {
  return mix({TrafficComponent{PatternKind::kUniform, 0, 1.0}});
}

TrafficPattern TrafficPattern::adversarial(u32 offset) {
  return mix({TrafficComponent{PatternKind::kAdversarial, offset, 1.0}});
}

TrafficPattern TrafficPattern::stencil2d() {
  return mix({TrafficComponent{PatternKind::kStencil2D, 0, 1.0}});
}

TrafficPattern TrafficPattern::mix(std::vector<TrafficComponent> components) {
  OFAR_CHECK(!components.empty());
  TrafficPattern p;
  p.components_ = std::move(components);
  double acc = 0.0;
  for (const auto& c : p.components_) {
    OFAR_CHECK_MSG(c.weight > 0.0, "component weights must be positive");
    acc += c.weight;
    p.cumulative_.push_back(acc);
  }
  return p;
}

NodeId TrafficPattern::pick(NodeId src, const Dragonfly& topo,
                            Rng& rng) const {
  OFAR_DCHECK(!components_.empty());
  std::size_t idx = 0;
  if (components_.size() > 1) {
    const double r = rng.uniform() * cumulative_.back();
    while (idx + 1 < cumulative_.size() && r >= cumulative_[idx]) ++idx;
  }
  const TrafficComponent& c = components_[idx];

  if (c.kind == PatternKind::kUniform) {
    // Any node but the source itself (source group allowed, paper §V).
    NodeId dst = rng.below(topo.nodes() - 1);
    if (dst >= src) ++dst;
    return dst;
  }
  if (c.kind == PatternKind::kStencil2D) {
    // Grid dimensions: the most square factorisation of the node count.
    const u32 n = topo.nodes();
    u32 nx = 1;
    for (u32 d = 1; d * d <= n; ++d)
      if (n % d == 0) nx = d;
    const u32 ny = n / nx;
    const u32 x = src % nx, y = src / nx;
    // Random von-Neumann neighbour with periodic boundaries.
    u32 dx = x, dy = y;
    switch (rng.below(4)) {
      case 0: dx = (x + 1) % nx; break;
      case 1: dx = (x + nx - 1) % nx; break;
      case 2: dy = (y + 1) % ny; break;
      default: dy = (y + ny - 1) % ny; break;
    }
    NodeId dst = dy * nx + dx;
    if (dst == src) dst = (src + 1) % n;  // degenerate 1-wide grids
    return dst;
  }
  // ADV+offset: random node of group (src_group + offset) mod G. An offset
  // that is a multiple of G degenerates to intra-group traffic; we keep the
  // source node excluded in that case.
  const GroupId dst_group =
      (topo.group_of_node(src) + c.offset) % topo.groups();
  const u32 per_group = topo.a() * topo.p();
  NodeId dst = topo.node_at(topo.router_at(dst_group, 0), 0) +
               rng.below(per_group);
  if (dst == src) dst = (dst_group * per_group) + (dst % per_group == per_group - 1
                                                       ? 0
                                                       : dst % per_group + 1);
  return dst;
}

std::string TrafficPattern::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i != 0) os << "+";
    const auto& c = components_[i];
    if (c.kind == PatternKind::kUniform) os << "UN";
    else if (c.kind == PatternKind::kStencil2D) os << "STENCIL2D";
    else os << "ADV+" << c.offset;
    if (components_.size() > 1) os << "(" << c.weight << ")";
  }
  return os.str();
}

}  // namespace ofar
