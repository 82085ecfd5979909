#include "sim/flat_state.hpp"

#include "sim/network.hpp"

namespace ofar {

void CreditView::init(const Network& net) {
  const u32 ports = net.topo().ports_per_router();
  packet_size_ = net.config().packet_size;
  base_counts_.assign(ports, 0);
  for (PortId port = 0; port < ports; ++port)
    base_counts_[port] = net.base_vcs(port);
  snaps_.assign(ports, PortSnap{});
  epoch_ = 0;
  r_ = nullptr;
}

}  // namespace ofar
