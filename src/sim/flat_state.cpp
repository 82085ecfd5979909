#include "sim/flat_state.hpp"

#include "sim/network.hpp"

namespace ofar {

void CreditView::init(const Network& net) {
  const u32 ports = net.topo().ports_per_router();
  net_ = &net;
  packet_size_ = net.config().packet_size;
  base_counts_.assign(ports, 0);
  for (PortId port = 0; port < ports; ++port)
    base_counts_[port] = net.base_vcs(port);
  snaps_.assign(ports, PortSnap{});
  epoch_ = 0;
  ring_stamp_ = 0;
  r_ = nullptr;
}

void CreditView::bind(const Router& r) noexcept {
  bind(r, static_cast<u32>(net_->state_cycle()));
}

void CreditView::refresh_ring() noexcept {
  ring_stamp_ = epoch_;
  // The physical ring leaves every router on one port; the embedded one
  // on the port of its step. Either way its escape VCs sit above the
  // port's base VCs (Network::ring_out).
  const bool physical = net_->config().ring == RingKind::kPhysical;
  ring_port_ = physical ? net_->topo().ring_port()
                        : net_->ring()->embedded_out_port(r_->id);
  const u32 first = base_counts_[ring_port_];
  const u32 count = physical ? net_->config().vcs_local : 1u;
  const OutputPort& out = r_->outputs[ring_port_];
  ring_free_ = 0;
  ring_best_vc_ = 0;
  if (!out.wired() || out.busy()) return;
  // OutputPort::best_vc's pick for any need the best VC meets: the first
  // VC holding the most credits.
  for (u32 v = first; v < first + count; ++v) {
    const u32 c = out.credit(v, now_);
    if (v == first || c > ring_free_) {
      ring_free_ = c;
      ring_best_vc_ = static_cast<VcId>(v);
    }
  }
}

}  // namespace ofar
