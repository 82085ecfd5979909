#include "routing/piggyback.hpp"

#include <utility>

#include "common/ckpt_stream.hpp"
#include "routing/ugal.hpp"
#include "sim/network.hpp"

namespace ofar {

PiggybackPolicy::PiggybackPolicy(const SimConfig& cfg)
    : ValiantPolicy(cfg),
      threshold_(cfg.pb_saturation_threshold),
      delay_(std::max(1u, cfg.pb_broadcast_delay)) {}

void PiggybackPolicy::tick(Network& net) {
  if (!initialised_) {
    h_ = net.topo().h();
    current_.assign(net.topo().routers() * h_, 0);
    visible_.assign(net.topo().routers() * h_, 0);
    initialised_ = true;
  }
  const Dragonfly& topo = net.topo();
  const PortId first_global = topo.first_global_port();
  for (RouterId r = 0; r < topo.routers(); ++r) {
    if (!net.router_built(r)) continue;  // untouched: flags stay clear
    // Read-only: the mutable router() would forget r's parked heads.
    const Router& router = std::as_const(net).router(r);
    for (u32 j = 0; j < h_; ++j) {
      const OutputPort& out = router.outputs[first_global + j];
      const bool sat =
          out.wired() &&
          net.base_occupancy(router, static_cast<PortId>(first_global + j)) >
              threshold_;
      current_[r * h_ + j] = sat ? 1 : 0;
    }
  }
  // Broadcast within each group every `delay_` cycles (piggyback latency).
  if (net.now() - last_broadcast_ >= delay_) {
    visible_ = current_;
    last_broadcast_ = net.now();
  }
}

void PiggybackPolicy::io(CkptArchive& ar, const Network& net) {
  ValiantPolicy::io(ar, net);
  u64 flags = current_.size();
  ar.io(initialised_, last_broadcast_, flags);
  // The first tick sizes both tables to one flag per global port.
  h_ = initialised_ ? net.topo().h() : 0;
  if (!ar.check(flags == u64{net.topo().routers()} * h_,
                "corrupt Piggyback state"))
    return;
  current_.resize(flags);
  visible_.resize(flags);
  ar.fixed(current_);
  ar.fixed(visible_);
}

void PiggybackPolicy::on_inject(Network& net, Packet& pkt, RouterId at) {
  // Remote information: is the minimal path's global channel saturated?
  const Dragonfly& topo = net.topo();
  const GroupId gs = topo.group_of(at);
  const GroupId gd = topo.group_of(pkt.dst_router);
  const bool min_global_saturated =
      initialised_ && gs != gd &&
      saturated(topo.carrier_router(gs, gd),
                static_cast<u32>(topo.carrier_port(gs, gd)) -
                    topo.first_global_port());
  set_valiant(pkt, ugal_intermediate(net, pkt, at, rng_,
                                     net.config().ugal_bias_phits,
                                     min_global_saturated));
}

}  // namespace ofar
