#include "routing/valiant.hpp"

#include <algorithm>

#include "common/ckpt_stream.hpp"
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

Intermediate pick_intermediate(const Dragonfly& topo, RouterId at,
                               RouterId dst, Rng& rng) {
  Intermediate inter;
  if (at == dst) return inter;  // same router: nothing to balance
  // Candidates are the groups, or for intra-group traffic the routers of
  // the group; the two ends are skipped.
  const GroupId gs = topo.group_of(at);
  const bool across = gs != topo.group_of(dst);
  const u32 n = across ? topo.groups() : topo.a();
  if (n < 3) return inter;  // no third candidate: degenerate to minimal
  const u32 s = across ? gs : topo.local_of(at);
  const u32 d = across ? topo.group_of(dst) : topo.local_of(dst);
  u32 pick = rng.below(n - 2);
  // Skip over s and d (order-independent two-hole skip).
  if (pick >= std::min(s, d)) ++pick;
  if (pick >= std::max(s, d)) ++pick;
  if (across)
    inter.group = pick;
  else
    inter.router = topo.router_at(gs, pick);
  return inter;
}

void ValiantPolicy::on_inject(Network& net, Packet& pkt, RouterId at) {
  set_valiant(pkt, pick_intermediate(net.topo(), at, pkt.dst_router, rng_));
}

RouteChoice ValiantPolicy::route(RouteContext& ctx) {
  return request_ordered(ctx, valiant_next_port(ctx.net, ctx.at, ctx.pkt),
                         ordered_vc);
}

}  // namespace ofar
