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

// The misroute candidates of a minimal port: the available local and
// global ports other than it whose occupancy clears both thresholds its
// Q_min sets. They depend on nothing but the router's frozen snapshot and
// the minimal port, so the view memoizes them once per port per scan, and
// each head only masks them with the classes its flags allow. Destination-
// group ports need no filter: the one global port of a router that leads
// into a group is that router's minimal port toward it, which is excluded
// (Dragonfly.GlobalPortIntoAGroupIsItsMinimalPort pins this).
u64 OfarPolicy::candidates(const Dragonfly& topo, CreditView& view,
                           PortId min_port, double q_min,
                           double th) const {
  const double gap_ceiling = q_min - thresholds_.min_gap;
  u64 m = view.avail_mask() &
          (topo.local_port_mask() | topo.global_port_mask()) &
          ~(u64{1} << min_port);
  u64 out = 0;
  while (m != 0) {
    const PortId port = static_cast<PortId>(std::countr_zero(m));
    m &= m - 1;
    const double occ = view.base_occupancy(port);
    if (occ >= th || occ > gap_ceiling) continue;
    out |= u64{1} << port;
  }
  return out;
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
  if (at == pkt.dst_router) {
    ctx.wake = u64{1} << min_port;
    return RouteChoice::none();
  }

  // 2. Non-minimal candidates, gated by the thresholds (paper §IV-B). The
  // misroute permissions read only the packet's flags and groups.
  const bool src_side = here == topo.group_of_node(pkt.src) &&
                        here != topo.group_of(pkt.dst_router);
  const bool local_allowed =
      allow_local_ && !pkt.local_misrouted &&
      // In the source group of inter-group traffic a local misroute is
      // always an option; elsewhere only when the minimal output itself is
      // a congested local port (paper §IV-A).
      (src_side || topo.port_class(min_port) == PortClass::kLocal);
  const bool global_allowed = src_side && !pkt.global_misrouted;
  const u64 local_ok = local_allowed ? topo.local_port_mask() : 0;
  const u64 global_ok = global_allowed ? topo.global_port_mask() : 0;
  const double q_min = view.base_occupancy(min_port);
  const bool gated = q_min >= thresholds_.th_min;
  if (gated) {
    const double th = nonmin_threshold(q_min);
    if (prov) prov->threshold = static_cast<float>(th);
    const u64 cand =
        (local_ok | global_ok) == 0
            ? 0
            : view.memo(min_port, [&] {
                return candidates(topo, view, min_port, q_min, th);
              });
    // Injection queues misroute globally first (saving Valiant's first
    // local hop); transit queues locally first (§IV-A starvation rule).
    const bool global_first =
        src_side && topo.port_class(in_port) == PortClass::kNode;
    u64 drawn = cand & (global_first ? global_ok : local_ok);
    if (drawn == 0) drawn = cand & (global_first ? local_ok : global_ok);
    if (drawn != 0) {
      OFAR_DCHECK(lane < lanes_.size());
      // The i-th candidate in ascending port order, i drawn uniformly.
      u64 rest = drawn;
      for (u32 i = lanes_[lane].rng.below(
               static_cast<u32>(std::popcount(drawn)));
           i > 0; --i)
        rest &= rest - 1;
      const PortId pick = static_cast<PortId>(std::countr_zero(rest));
      VcId vc;
      const bool ok = view.best_base_vc(pick, vc);
      OFAR_DCHECK(ok);
      (void)ok;
      RouteChoice c = RouteChoice::to(pick, vc);
      c.misroute = topo.port_class(pick) == PortClass::kLocal
                       ? MisrouteKind::kLocal
                       : MisrouteKind::kGlobal;
      if (prov) {
        prov->chosen_occ = static_cast<float>(view.base_occupancy(pick));
        prov->set_candidates(drawn);
      }
      return c;
    }
  }

  // 3. Last resort: the deadlock-free escape ring (bubble restricted).
  // Entry only under true backpressure — the minimal output has no room for
  // the whole packet on any VC. A port that is merely busy this cycle is
  // actively draining and will free within a packet time; waiting cannot
  // deadlock (deadlock requires a credit-starved dependency cycle).
  RouteChoice c = RouteChoice::none();
  if (view.base_starved(min_port)) c = ring_.enter(ctx);
  if (c.valid) return c;

  // A failed head parks on its minimal port, its allowed misroute ports
  // and, when it tried to enter, the ring output (enter() added that) —
  // unless an allowed misroute port is available and only its occupancy
  // kept it out, since occupancies move without a rise. Below Th_min no
  // misroute port counts: Q_min cannot rise while the head waits, as its
  // minimal port stays unavailable, and nothing is granted onto it, until
  // a rise of that port wakes the head. A busy minimal port cannot turn
  // starved before its transfer ends, which is such a rise, so a head
  // that did not try the ring need not wait on it.
  const u64 misroute_ok = gated ? local_ok | global_ok : 0;
  if (misroute_ok != 0 && (view.avail_mask() & misroute_ok) != 0)
    ctx.wake = 0;
  else
    ctx.wake |= (u64{1} << min_port) | misroute_ok;
  return c;
}

}  // namespace ofar
