// Quickstart: build a dragonfly, pick a routing mechanism, offer uniform
// traffic, and read latency/throughput — the 30-second tour of the API.
//
//   ./quickstart [--h 4] [--routing OFAR|OFAR-L|MIN|VAL|PB|UGAL]
//                [--pattern UN|ADV+n] [--load 0.2]
//                [--warmup 5000] [--measure 10000] [--seed 1]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ofar;
  CommandLine cli(argc, argv);

  SimConfig cfg;
  cfg.h = static_cast<u32>(cli.get_uint("h", 4));
  cfg.seed = cli.get_uint("seed", 1);
  cfg.thresholds.nonmin_factor =
      cli.get_double("factor", cfg.thresholds.nonmin_factor);
  cfg.thresholds.min_gap = cli.get_double("gap", cfg.thresholds.min_gap);
  cfg.deadlock_timeout =
      static_cast<u32>(cli.get_uint("timeout", cfg.deadlock_timeout));
  cfg.congestion_throttle = cli.get_bool("throttle", false);
  cfg.throttle_on = cli.get_double("throttle-on", cfg.throttle_on);
  cfg.throttle_off = cli.get_double("throttle-off", cfg.throttle_off);
  if (!parse_routing_kind(cli.get_string("routing", "OFAR"), cfg.routing)) {
    std::fprintf(stderr, "unknown --routing value\n");
    return 1;
  }
  cfg.ring = default_ring(cfg.routing);

  RunParams params;
  params.warmup = cli.get_uint("warmup", 5'000);
  params.measure = cli.get_uint("measure", 10'000);
  const double load = cli.get_double("load", 0.2);

  const std::string pattern_text = cli.get_string("pattern", "UN");
  TrafficPattern pattern = TrafficPattern::uniform();
  if (pattern_text.rfind("ADV+", 0) == 0) {
    pattern = TrafficPattern::adversarial(
        static_cast<u32>(std::strtoul(pattern_text.c_str() + 4, nullptr, 10)));
  } else if (pattern_text != "UN") {
    std::fprintf(stderr, "unknown --pattern (use UN or ADV+n)\n");
    return 1;
  }

  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 1;
  }
  if (const std::string err = cfg.validate(); !err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  std::printf("config: %s\n", cfg.summary().c_str());
  std::printf("offering %s traffic at %.3f phits/(node*cycle)...\n",
              pattern.describe().c_str(), load);

  const SteadyResult r = run_steady(cfg, pattern, load, params);

  std::printf("accepted load : %.4f phits/(node*cycle)\n", r.accepted_load);
  std::printf("avg latency   : %.1f cycles (stddev %.1f)\n", r.avg_latency,
              r.stddev_latency);
  std::printf("delivered     : %llu packets\n",
              static_cast<unsigned long long>(r.delivered_packets));
  std::printf("misroutes     : %llu local, %llu global\n",
              static_cast<unsigned long long>(r.local_misroutes),
              static_cast<unsigned long long>(r.global_misroutes));
  std::printf("escape ring   : %llu entries\n",
              static_cast<unsigned long long>(r.ring_entries));
  std::printf("watchdog      : %llu stalled packets (worst stall %llu "
              "cycles)\n",
              static_cast<unsigned long long>(r.stalled_packets),
              static_cast<unsigned long long>(r.worst_stall));
  return 0;
}
