#include "routing/valiant.hpp"

#include <algorithm>

#include "common/ckpt_stream.hpp"
#include "sim/flat_state.hpp"
#include "sim/network.hpp"

namespace ofar {

ValiantPolicy::ValiantPolicy(const SimConfig& cfg)
    : rng_(cfg.seed ^ 0x56414c49414e54ULL),
      seed_(cfg.seed ^ 0x56414c49414e54ULL) {}

void ValiantPolicy::bind_lanes(u32 lanes) {
  lane_rngs_.clear();
  lane_rngs_.reserve(lanes > 0 ? lanes - 1 : 0);
  for (u32 l = 1; l < lanes; ++l)
    lane_rngs_.emplace_back(seed_ ^ (0x9E3779B97F4A7C15ULL * l));
}

void ValiantPolicy::io(CkptArchive& ar, const Network&) {
  u32 lanes = static_cast<u32>(lane_rngs_.size());
  ar.io(rng_, lanes);
  // The lane layout is fixed by bind_lanes.
  if (ar.check(lanes == lane_rngs_.size(), "policy lane count mismatch"))
    for (Rng& lane : lane_rngs_) ar.io(lane);
}

void ValiantPolicy::assign_intermediate(Network& net, Packet& pkt,
                                        RouterId at) {
  const Dragonfly& topo = net.topo();
  pkt.inter_group = kInvalidGroup;
  pkt.inter_router = kInvalidRouter;
  pkt.valiant_done = true;
  if (at == pkt.dst_router) return;  // same router: nothing to balance

  const GroupId gs = topo.group_of(at);
  const GroupId gd = topo.group_of(pkt.dst_router);
  if (gs != gd) {
    // Random intermediate group different from source and destination
    // (paper §III: "misrouting applied to an intermediate group different
    // from the source and destination groups").
    if (topo.groups() < 3) return;  // no third group: degenerate to minimal
    GroupId inter = rng_.below(topo.groups() - 2);
    // Skip over gs and gd (order-independent two-hole skip).
    const GroupId lo = std::min(gs, gd), hi = std::max(gs, gd);
    if (inter >= lo) ++inter;
    if (inter >= hi) ++inter;
    pkt.inter_group = inter;
    pkt.valiant_done = false;
    return;
  }
  // Intra-group traffic: random intermediate router of the group.
  if (topo.a() < 3) return;
  const u32 ls = topo.local_of(at);
  const u32 ld = topo.local_of(pkt.dst_router);
  u32 inter = rng_.below(topo.a() - 2);
  const u32 lo = std::min(ls, ld), hi = std::max(ls, ld);
  if (inter >= lo) ++inter;
  if (inter >= hi) ++inter;
  pkt.inter_router = topo.router_at(gs, inter);
  pkt.valiant_done = false;
}

void ValiantPolicy::on_inject(Network& net, Packet& pkt, RouterId at) {
  assign_intermediate(net, pkt, at);
}

RouteChoice ValiantPolicy::route(RouteContext& ctx) {
  Network& net = ctx.net;
  Packet& pkt = ctx.pkt;
  const RouterId at = ctx.at;
  RouteProvenance* const prov = ctx.prov;
  const PortId out = valiant_next_port(net, at, pkt);
  const Router& r = net.router(at);
  const OutputPort& port = r.outputs[out];
  if (prov) {
    prov->min_port = out;
    prov->q_min = static_cast<float>(ctx.view.base_occupancy(out));
    prov->chosen_occ = prov->q_min;
  }
  const RouteCondition go = pkt.valiant_done ? RouteCondition::kMinimal
                                             : RouteCondition::kValiantPhase;
  if (!port.wired() || port.busy()) {
    if (prov) prov->condition = RouteCondition::kWaitBusy;
    return RouteChoice::none();
  }
  const VcId vc = ordered_vc(net, at, out, pkt);
  if (port.credits[vc] < net.config().packet_size) {
    if (prov) prov->condition = RouteCondition::kWaitBusy;
    return RouteChoice::none();
  }
  if (prov) prov->condition = go;
  return RouteChoice::to(out, vc);
}

}  // namespace ofar
