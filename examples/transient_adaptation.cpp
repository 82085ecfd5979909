// Transient-adaptation demo (the paper's Fig. 6 scenario as an API tour):
// warm the network with one traffic pattern, switch to another at a known
// cycle, and watch how fast each mechanism's latency settles. Prints an
// ASCII latency timeline per mechanism so the adaptation period is visible
// directly in the terminal.
//
//   ./transient_adaptation [--h 4] [--load 0.14] [--from UN] [--to ADV+4]
//                          [--switch-at 15000] [--horizon 9000] [--seed 1]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/experiment.hpp"

using namespace ofar;

namespace {

TrafficPattern parse_pattern(const std::string& text, u32 /*h*/) {
  if (text == "UN") return TrafficPattern::uniform();
  if (text.rfind("ADV+", 0) == 0)
    return TrafficPattern::adversarial(
        static_cast<u32>(std::strtoul(text.c_str() + 4, nullptr, 10)));
  std::fprintf(stderr, "unknown pattern '%s' (use UN or ADV+n)\n",
               text.c_str());
  std::exit(1);
}

void print_timeline(const char* label, const TransientResult& result) {
  double lo = 1e300, hi = 0.0;
  for (const auto& b : result.series) {
    if (b.packets == 0) continue;
    lo = std::min(lo, b.mean_latency);
    hi = std::max(hi, b.mean_latency);
  }
  const double span = std::max(1.0, hi - lo);
  std::printf("%-7s |", label);
  for (const auto& b : result.series) {
    static const char* kRamp[] = {" ", ".", ":", "-", "=", "#", "@"};
    const int level =
        b.packets == 0
            ? 0
            : 1 + static_cast<int>(5.99 * (b.mean_latency - lo) / span);
    std::printf("%s", kRamp[std::clamp(level, 0, 6)]);
  }
  std::printf("|  %.0f..%.0f cycles\n", lo, hi);
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  SimConfig base;
  base.h = static_cast<u32>(cli.get_uint("h", 4));
  base.seed = cli.get_uint("seed", 1);
  const double load = cli.get_double("load", 0.14);
  const TrafficPattern from =
      parse_pattern(cli.get_string("from", "UN"), base.h);
  const TrafficPattern to = parse_pattern(
      cli.get_string("to", "ADV+" + std::to_string(base.h)), base.h);
  TransientParams params;
  params.warmup = cli.get_uint("switch-at", 15'000);
  params.horizon = cli.get_uint("horizon", 9'000);
  params.lead = 1'500;
  params.drain = 15'000;
  params.bucket = static_cast<u32>(cli.get_uint("bucket", 300));
  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 1;
  }

  std::printf("Transient adaptation: %s -> %s at cycle %llu, load %.2f, "
              "h=%u\n",
              from.describe().c_str(), to.describe().c_str(),
              static_cast<unsigned long long>(params.warmup), load, base.h);
  std::printf("Each column is a %u-cycle bucket of mean latency by SEND "
              "cycle; the switch happens at the '|' marker position %llu.\n\n",
              params.bucket,
              static_cast<unsigned long long>(params.lead / params.bucket));

  for (const auto& [label, kind] :
       std::vector<std::pair<const char*, RoutingKind>>{
           {"PB", RoutingKind::kPb},
           {"OFAR", RoutingKind::kOfar},
           {"OFAR-L", RoutingKind::kOfarL}}) {
    SimConfig cfg = base;
    cfg.routing = kind;
    cfg.ring = default_ring(cfg.routing);
    const TransientResult result =
        run_transient(cfg, from, load, to, load, params);
    print_timeline(label, result);
  }
  std::printf("\nReading: a long dark ('#@') plateau after the switch is an "
              "adaptation period; OFAR's in-transit misrouting reacts in "
              "place of waiting for remote congestion news, so its plateau "
              "is the shortest (paper §VI-B).\n");
  return 0;
}
