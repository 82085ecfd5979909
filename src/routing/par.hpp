// PAR: Progressive Adaptive Routing (Jiang, Kim & Dally, ISCA'09;
// discussed in the paper's §I/§II as the one pre-OFAR mechanism with any
// in-transit freedom). A packet starts out minimal but may re-evaluate the
// minimal-vs-Valiant decision at each router of its *source group*; once
// it diverts (or takes its global hop) the decision is final.
//
// The price is one extra VC on local links (4 instead of 3): the maximal
// path is l-l-g-l-g-l, and deadlock freedom needs the ascending order
// L0 < L1 < G0 < L2 < G1 < L3. PAR therefore uses its own VC assignment
// (par_vc) rather than the shared ordered_vc helper.
#pragma once

#include "routing/ugal.hpp"

namespace ofar {

/// PAR's hop-position VC assignment over the l-l-g-l-g-l pattern.
VcId par_vc(const Network& net, PortId port, const Packet& pkt);

class ParPolicy final : public ValiantPolicy {
 public:
  explicit ParPolicy(const SimConfig& cfg);

  const char* name() const noexcept override { return "PAR"; }

  void on_inject(Network& net, Packet& pkt, RouterId at) override;
  /// The in-transit re-evaluation draws RNG and rewrites the packet's
  /// Valiant state before it looks at port availability, so even a failing
  /// call has observable effects: an adaptive head never parks.
  RouteChoice route(RouteContext& ctx) override;

 private:
  i32 bias_;
};

}  // namespace ofar
