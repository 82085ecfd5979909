#include "verify/wait_graph.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/network.hpp"
#include "verify/invariant_auditor.hpp"

namespace ofar::verify {

std::vector<StallEdge> stalled_heads(const Network& net) {
  const Dragonfly& topo = net.topo();
  const PacketPool& pool = net.packets();
  const Cycle now = net.now();
  const u32 at = static_cast<u32>(net.state_cycle());
  const u32 timeout = net.config().deadlock_timeout;
  std::vector<StallEdge> edges;
  for (RouterId r = 0; r < topo.routers(); ++r) {
    if (!net.router_built(r)) continue;  // untouched: no resident heads
    const Router& router = net.router(r);
    for (PortId p = 0; p < topo.ports_per_router(); ++p) {
      const InputPort& in = router.inputs[p];
      for (u32 v = 0; v < in.vcs.size(); ++v) {
        if (in.vcs[v].empty()) continue;
        // Streaming heads are making progress, not stalled.
        if (in.head_busy[v] != 0) continue;
        const PacketId id = in.vcs[v].head();
        if (!pool.is_live(id) || !header_valid(net, pool.get(id))) continue;
        const Packet& pkt = pool.get(id);
        const u64 age = now - pkt.last_progress;
        if (age <= timeout) continue;

        StallEdge e;
        e.router = r;
        e.in_port = p;
        e.in_vc = static_cast<VcId>(v);
        e.packet = id;
        e.src = pkt.src;
        e.dst = pkt.dst;
        e.dst_router = pkt.dst_router;
        e.age = age;
        e.in_ring = pkt.in_ring;
        e.arrived_phits = in.vcs[v].arrived(in.vcs[v].entry(0), at);
        // The structural wait port (see the header): topology only.
        if (pkt.in_ring && net.ring() != nullptr) {
          const Network::RingOut ro = net.ring_out(r);
          e.wait_port = ro.port;
          e.wait_first_vc = ro.first_vc;
          e.wait_vcs = ro.num_vcs;
        } else if (r == pkt.dst_router) {
          e.wait_port = topo.node_port(topo.node_slot(pkt.dst));
          e.wait_vcs = 1;
        } else {
          e.wait_port = topo.min_next_port(r, pkt.dst_router);
          e.wait_vcs = net.base_vcs(e.wait_port);
        }
        // Candidate VCs past the port's credit counters (an unwired port
        // has none) are dropped.
        const OutputPort& out = router.outputs[e.wait_port];
        const u32 vcs = out.credits.size();
        e.wait_vcs = std::min(e.wait_vcs, vcs - std::min(e.wait_first_vc, vcs));
        e.wait_busy = out.busy();
        e.held_by = out.active;
        for (u32 w = e.wait_first_vc; w < e.wait_first_vc + e.wait_vcs; ++w)
          e.wait_credits = std::max(e.wait_credits, out.credit(w, at));
        edges.push_back(e);
      }
    }
  }
  return edges;
}

WaitGraph::WaitGraph(const Network& net) : net_(net) {}

u32 WaitGraph::node_index(RouterId r, PortId p, VcId v) const noexcept {
  return r * ports_ * max_vcs_ + p * max_vcs_ + v;
}

WaitGraph::Node WaitGraph::node_at(u32 index) const noexcept {
  Node n;
  n.router = index / (ports_ * max_vcs_);
  n.port = static_cast<PortId>((index / max_vcs_) % ports_);
  n.vc = static_cast<VcId>(index % max_vcs_);
  return n;
}

bool WaitGraph::is_ring(u32 index) const {
  const Node n = node_at(index);
  return net_.is_ring_input(n.router, n.port, n.vc);
}

void WaitGraph::build() {
  const Dragonfly& topo = net_.topo();
  ports_ = topo.ports_per_router();
  // Config-derived bound, not router state: lazy construction leaves
  // untouched routers without bound FIFOs, and the index space must not
  // depend on which routers happen to be built. An embedded escape ring
  // adds one VC to one input port per router.
  const SimConfig& cfg = net_.config();
  max_vcs_ = std::max({1u, cfg.vcs_local, cfg.vcs_global, cfg.vcs_injection});
  if (cfg.ring == RingKind::kEmbedded) ++max_vcs_;
  const std::size_t total =
      static_cast<std::size_t>(topo.routers()) * ports_ * max_vcs_;
  adj_.assign(total, {});
  num_edges_ = 0;

  const u32 need = cfg.packet_size;
  for (const StallEdge& e : stalled_heads(net_)) {
    // A busy output is draining at one phit per cycle — progress, not a
    // hold/wait edge. Same for any candidate VC with a packet of credits:
    // the head could be granted.
    if (e.wait_busy || e.wait_credits >= need) continue;
    const OutputPort& out = net_.router(e.router).outputs[e.wait_port];
    if (!out.wired()) continue;
    const Channel ch = net_.channel(out.channel);
    if (ch.is_ejection()) continue;  // sink credits never run out
    std::vector<u32>& waits = adj_[node_index(e.router, e.in_port, e.in_vc)];
    for (u32 w = e.wait_first_vc; w < e.wait_first_vc + e.wait_vcs; ++w) {
      waits.push_back(
          node_index(ch.dst_router, ch.dst_port, static_cast<VcId>(w)));
      ++num_edges_;
    }
  }
}

std::vector<WaitGraph::Node> WaitGraph::find_ring_cycle() const {
  // DFS over the subgraph induced on ring nodes: a cycle there is exactly a
  // wait cycle whose members are all escape-ring VCs.
  const std::size_t n = adj_.size();
  std::vector<u8> color(n, 0);  // 0 = unvisited, 1 = on stack, 2 = done
  std::vector<std::pair<u32, std::size_t>> frame;  // (node, next edge)
  std::vector<u32> path;
  for (u32 s = 0; s < n; ++s) {
    if (adj_[s].empty() || color[s] != 0 || !is_ring(s)) continue;
    frame.clear();
    path.clear();
    frame.emplace_back(s, 0);
    color[s] = 1;
    path.push_back(s);
    while (!frame.empty()) {
      const u32 u = frame.back().first;
      if (frame.back().second < adj_[u].size()) {
        const u32 v = adj_[u][frame.back().second++];
        if (!is_ring(v)) continue;
        if (color[v] == 1) {
          const auto it = std::find(path.begin(), path.end(), v);
          std::vector<Node> cycle;
          for (auto p = it; p != path.end(); ++p)
            cycle.push_back(node_at(*p));
          return cycle;
        }
        if (color[v] == 0) {
          color[v] = 1;
          frame.emplace_back(v, 0);
          path.push_back(v);
        }
      } else {
        color[u] = 2;
        frame.pop_back();
        path.pop_back();
      }
    }
  }
  return {};
}

std::string WaitGraph::describe(const std::vector<Node>& cycle) {
  std::string out;
  char buf[48];
  for (const Node& n : cycle) {
    if (!out.empty()) out += " -> ";
    std::snprintf(buf, sizeof buf, "r%u.p%uv%u", n.router,
                  static_cast<u32>(n.port), static_cast<u32>(n.vc));
    out += buf;
  }
  if (!cycle.empty()) out += " -> (back)";
  return out;
}

}  // namespace ofar::verify
