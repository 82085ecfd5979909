// §III motivation study: why local links — not just global ones — saturate
// a dragonfly under adversarial traffic, and what each routing answer does
// about it.
//
// The example runs ADV+1 (global-link pathology) and ADV+h (local-link
// funnel) under MIN, VAL and OFAR, prints accepted throughput against the
// paper's closed-form ceilings, and then uses the per-channel phit counters
// to show the actual link-utilisation profile: under VAL + ADV+h the
// hottest local link carries ~h times the mean, exactly the funnel of
// Fig. 2a.
//
//   ./adversarial_study [--h 4] [--load 0.4] [--cycles 8000] [--seed 1]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"

using namespace ofar;

namespace {

struct LinkProfile {
  double mean_local = 0.0;
  double max_local = 0.0;
  double mean_global = 0.0;
  double max_global = 0.0;
};

LinkProfile profile_links(const Network& net, Cycle cycles) {
  LinkProfile p;
  u64 nl = 0, ng = 0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (!net.channel_wired(c)) continue;
    const Channel ch = net.channel(c);
    const double util = static_cast<double>(net.channel_phits(c)) / cycles;
    if (ch.cls == ChannelClass::kLocal) {
      p.mean_local += util;
      p.max_local = std::max(p.max_local, util);
      ++nl;
    } else if (ch.cls == ChannelClass::kGlobal) {
      p.mean_global += util;
      p.max_global = std::max(p.max_global, util);
      ++ng;
    }
  }
  if (nl != 0) p.mean_local /= nl;
  if (ng != 0) p.mean_global /= ng;
  return p;
}

void study(const char* mech_name, RoutingKind kind, u32 h, u32 offset,
           double load, Cycle cycles, u64 seed) {
  SimConfig cfg;
  cfg.h = h;
  cfg.seed = seed;
  cfg.routing = kind;
  cfg.ring = default_ring(cfg.routing);
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(offset), load, seed));
  net.run(cycles);

  const LinkProfile p = profile_links(net, cycles);
  const double accepted =
      net.stats().accepted_load(net.now(), net.topo().nodes());
  std::printf(
      "  %-5s accepted %.3f | local links: mean %.3f max %.3f (x%.1f) | "
      "global links: mean %.3f max %.3f\n",
      mech_name, accepted, p.mean_local, p.max_local,
      p.mean_local > 0 ? p.max_local / p.mean_local : 0.0, p.mean_global,
      p.max_global);
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const u32 h = static_cast<u32>(cli.get_uint("h", 4));
  const double load = cli.get_double("load", 0.4);
  const Cycle cycles = cli.get_uint("cycles", 8'000);
  const u64 seed = cli.get_uint("seed", 1);
  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 1;
  }

  std::printf("Adversarial-traffic study on a dragonfly with h=%u "
              "(offered load %.2f)\n\n", h, load);
  std::printf("analytic ceilings (§III): MIN under ADV: 1/(2h^2) = %.4f | "
              "VAL: 0.5 | VAL under ADV+h: 1/h = %.4f\n\n",
              1.0 / (2.0 * h * h), 1.0 / h);

  std::printf("ADV+1: all inter-group traffic of a group shares ONE global "
              "link under MIN\n");
  for (const auto& [name, kind] :
       std::vector<std::pair<const char*, RoutingKind>>{
           {"MIN", RoutingKind::kMin},
           {"VAL", RoutingKind::kVal},
           {"OFAR", RoutingKind::kOfar}})
    study(name, kind, h, 1, load, cycles, seed);

  std::printf("\nADV+h: VAL's misrouted transit traffic funnels through one "
              "local link per group pair (Fig. 2a)\n");
  for (const auto& [name, kind] :
       std::vector<std::pair<const char*, RoutingKind>>{
           {"MIN", RoutingKind::kMin},
           {"VAL", RoutingKind::kVal},
           {"OFAR", RoutingKind::kOfar}})
    study(name, kind, h, h, load, cycles, seed);

  std::printf("\nReading: under ADV+h the VAL row shows a hot local link at "
              "~1 phit/cycle while the mean stays low — the §III funnel. "
              "OFAR's local misrouting spreads that traffic and lifts "
              "accepted load toward the 0.5 global bound.\n");
  return 0;
}
