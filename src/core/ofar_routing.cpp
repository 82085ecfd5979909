#include "core/ofar_routing.hpp"

#include <bit>

#include "common/ckpt_stream.hpp"
#include "sim/flat_state.hpp"
#include "sim/network.hpp"

namespace ofar {

OfarPolicy::OfarPolicy(const SimConfig& cfg, bool allow_local)
    : thresholds_(cfg.thresholds),
      ring_(cfg),
      allow_local_(allow_local),
      seed_(cfg.seed ^ 0x4F464152ULL) {
  lanes_.emplace_back(seed_);  // lane 0: the sim_shards = 1 stream
}

void OfarPolicy::bind_lanes(u32 lanes) {
  lanes_.resize(1, Lane(seed_));  // keep lane 0's stream position
  lanes_.reserve(lanes > 0 ? lanes : 1);
  for (u32 l = 1; l < lanes; ++l)
    lanes_.emplace_back(seed_ ^ (0x9E3779B97F4A7C15ULL * l));
}

void OfarPolicy::io(CkptArchive& ar, const Network&) {
  u32 lanes = static_cast<u32>(lanes_.size());
  ar.io(lanes);
  // The lane layout is fixed by bind_lanes.
  if (ar.check(lanes == lanes_.size(), "policy lane count mismatch"))
    for (Lane& lane : lanes_) ar.io(lane.rng);
}

// Both collectors walk only the set bits of the view's availability mask:
// a port fails base_available far more often than any other filter at
// saturation, so the masked scan visits a handful of ports instead of the
// whole class range. Bit order is ascending, matching the plain loops the
// masked form replaced — candidate vectors come out identical.

void OfarPolicy::collect_local(const Network& net, CreditView& view,
                               PortId min_port, double th,
                               double gap_ceiling,
                               std::vector<PortId>& out) const {
  const Dragonfly& topo = net.topo();
  const PortId first = topo.first_local_port();
  u64 m = (view.avail_mask() >> first) & ((u64{1} << (topo.a() - 1)) - 1);
  while (m != 0) {
    const PortId port =
        static_cast<PortId>(first + std::countr_zero(m));
    m &= m - 1;
    if (port == min_port) continue;
    const double occ = view.base_occupancy(port);
    if (occ >= th || occ > gap_ceiling) continue;
    out.push_back(port);
  }
}

void OfarPolicy::collect_global(const Network& net, CreditView& view,
                                RouterId at, PortId min_port,
                                GroupId dst_group, double th,
                                double gap_ceiling,
                                std::vector<PortId>& out) const {
  const Dragonfly& topo = net.topo();
  const PortId first = topo.first_global_port();
  u64 m = (view.avail_mask() >> first) & ((u64{1} << topo.h()) - 1);
  while (m != 0) {
    const PortId port =
        static_cast<PortId>(first + std::countr_zero(m));
    m &= m - 1;
    if (port == min_port) continue;
    // An available global port is necessarily wired (the view reports
    // unwired ports as unavailable).
    OFAR_DCHECK(topo.global_port_wired(at, port));
    // Never "misroute" straight into the destination group: that link is
    // the minimal one and is carried by a different router anyway.
    if (topo.slot_target(topo.group_of(at),
                         topo.port_slot(topo.local_of(at), port)) == dst_group)
      continue;
    const double occ = view.base_occupancy(port);
    if (occ >= th || occ > gap_ceiling) continue;
    out.push_back(port);
  }
}

RouteChoice OfarPolicy::route(RouteContext& ctx) {
  const Network& net = ctx.net;
  Packet& pkt = ctx.pkt;
  CreditView& view = ctx.view;
  const RouterId at = ctx.at;
  const PortId in_port = ctx.in_port;
  const u32 lane = ctx.lane;
  RouteProvenance* const prov = ctx.prov;
  const Dragonfly& topo = net.topo();
  const GroupId here = topo.group_of(at);

  // Crossing into a new group re-arms the per-group local-misroute flag.
  if (pkt.flag_group != here) {
    pkt.flag_group = here;
    pkt.local_misrouted = false;
  }

  // Packets riding the escape ring follow the ring discipline.
  if (net.is_ring_input(at, in_port, ctx.in_vc)) {
    OFAR_DCHECK(pkt.in_ring);
    return ring_.ride(ctx);
  }

  const PortId min_port = min_next_port(topo, at, pkt);
  if (prov) {
    prov->min_port = min_port;
    prov->q_min = static_cast<float>(view.base_occupancy(min_port));
    prov->threshold = static_cast<float>(thresholds_.th_min);
  }

  // 1. Minimal output, whenever it can take the whole packet right now.
  if (view.base_available(min_port)) {
    VcId vc;
    view.best_base_vc(min_port, vc);
    if (prov) prov->chosen_occ = prov->q_min;
    return RouteChoice::to(min_port, vc);
  }

  // At the destination router the only sensible move is to wait for the
  // ejection port; misrouting or escaping would only lengthen the path.
  if (at == pkt.dst_router) return RouteChoice::none();

  // 2. Non-minimal candidates, gated by the thresholds (paper §IV-B).
  const double q_min = view.base_occupancy(min_port);
  if (q_min >= thresholds_.th_min) {
    const double th = nonmin_threshold(q_min);
    // Candidates must also clear the absolute gap guard (see config.hpp).
    const double gap_ceiling = q_min - thresholds_.min_gap;
    const GroupId src_group = topo.group_of_node(pkt.src);
    const GroupId dst_group = topo.group_of(pkt.dst_router);
    const bool min_is_local =
        topo.port_class(min_port) == PortClass::kLocal;

    const bool local_flag_free = allow_local_ && !pkt.local_misrouted;
    // Local misroute: in the source group of inter-group traffic it is
    // always an option; elsewhere only when the minimal output itself is a
    // congested local port (paper §IV-A).
    const bool local_allowed =
        local_flag_free &&
        ((here == src_group && here != dst_group) || min_is_local);
    const bool global_allowed = here == src_group && here != dst_group &&
                                !pkt.global_misrouted;

    const PortClass in_class = topo.port_class(in_port);
    OFAR_DCHECK(lane < lanes_.size());
    Lane& ln = lanes_[lane];
    std::vector<PortId>& scratch = ln.scratch;
    scratch.clear();
    if (here == src_group && here != dst_group && in_class == PortClass::kNode) {
      // Injection queues misroute globally (saves Valiant's first local hop).
      if (global_allowed) collect_global(net, view, at, min_port, dst_group,
                                         th, gap_ceiling, scratch);
      if (scratch.empty() && local_allowed)
        collect_local(net, view, min_port, th, gap_ceiling, scratch);
    } else {
      // Transit queues: first locally, then globally (§IV-A starvation rule).
      if (local_allowed)
        collect_local(net, view, min_port, th, gap_ceiling, scratch);
      if (scratch.empty() && global_allowed)
        collect_global(net, view, at, min_port, dst_group, th, gap_ceiling,
                       scratch);
    }
    if (!scratch.empty()) {
      const PortId pick = scratch[ln.rng.below(
          static_cast<u32>(scratch.size()))];
      VcId vc;
      const bool ok = view.best_base_vc(pick, vc);
      OFAR_DCHECK(ok);
      (void)ok;
      RouteChoice c = RouteChoice::to(pick, vc);
      c.misroute = topo.port_class(pick) == PortClass::kLocal
                       ? MisrouteKind::kLocal
                       : MisrouteKind::kGlobal;
      if (prov) {
        prov->threshold = static_cast<float>(th);
        prov->chosen_occ = static_cast<float>(view.base_occupancy(pick));
        prov->set_candidates(scratch);
      }
      return c;
    }
    if (prov) prov->threshold = static_cast<float>(th);
  }

  // 3. Last resort: the deadlock-free escape ring (bubble restricted).
  // Entry only under true backpressure — the minimal output has no room for
  // the whole packet on any VC. A port that is merely busy this cycle is
  // actively draining and will free within a packet time; waiting cannot
  // deadlock (deadlock requires a credit-starved dependency cycle).
  if (!view.base_starved(min_port)) return RouteChoice::none();
  return ring_.enter(ctx);
}

}  // namespace ofar
