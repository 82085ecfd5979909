// Bulk-synchronous application model (the workload class that motivates
// the paper's burst experiment, §VI-C): a program alternates computation
// and communication supersteps separated by barriers. Each communication
// step is a synchronized burst — every node sends a fixed budget of
// packets drawn from a neighbor-exchange-heavy mixture (sequential rank
// placement maps neighbor exchanges to ADV-like offsets, §III).
//
// The example runs several supersteps under PB, OFAR and OFAR-L and
// reports per-step and total communication time — the application-level
// view of Fig. 7's result.
//
//   ./barrier_app [--h 4] [--steps 4] [--packets 150]
//                 [--neighbor-share 0.6] [--seed 1]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"

using namespace ofar;

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const u32 h = static_cast<u32>(cli.get_uint("h", 4));
  const u32 steps = static_cast<u32>(cli.get_uint("steps", 4));
  const u32 packets = static_cast<u32>(cli.get_uint("packets", 150));
  const double neighbor = cli.get_double("neighbor-share", 0.6);
  const u64 seed = cli.get_uint("seed", 1);
  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 1;
  }

  // Neighbour exchange with sequential placement: half the neighbour
  // traffic lands one group over (ADV+1), half lands h groups over
  // (ADV+h: the worst-case stencil stride); the rest is all-to-all-ish.
  const TrafficPattern step_pattern = TrafficPattern::mix({
      {PatternKind::kUniform, 0, 1.0 - neighbor},
      {PatternKind::kAdversarial, 1, neighbor / 2},
      {PatternKind::kAdversarial, h, neighbor / 2},
  });

  std::printf("BSP application model: %u supersteps, %u packets/node/step, "
              "pattern %s, h=%u\n\n",
              steps, packets, step_pattern.describe().c_str(), h);
  std::printf("%-7s", "step");
  for (const char* m : {"PB", "OFAR", "OFAR-L"}) std::printf(" %12s", m);
  std::printf("   (cycles per communication phase)\n");

  std::vector<u64> totals(3, 0);
  const RoutingKind kinds[3] = {RoutingKind::kPb, RoutingKind::kOfar,
                                RoutingKind::kOfarL};
  for (u32 step = 0; step < steps; ++step) {
    std::printf("%-7u", step);
    for (int m = 0; m < 3; ++m) {
      SimConfig cfg;
      cfg.h = h;
      cfg.seed = seed + step;  // each superstep draws fresh destinations
      cfg.routing = kinds[m];
      cfg.ring = default_ring(cfg.routing);

      Network net(cfg);
      auto source =
          std::make_unique<BurstSource>(step_pattern, packets, seed + step);
      BurstSource* burst = source.get();
      net.set_traffic(std::move(source));
      while (!(burst->finished() && net.drained()) &&
             net.now() < 10'000'000)
        net.step();
      totals[m] += net.now();
      std::printf(" %12llu", static_cast<unsigned long long>(net.now()));
    }
    std::printf("\n");
  }

  std::printf("%-7s", "total");
  for (int m = 0; m < 3; ++m)
    std::printf(" %12llu", static_cast<unsigned long long>(totals[m]));
  std::printf("\n\napplication communication speedup, OFAR vs PB: %.2fx "
              "(paper reports OFAR consuming bursts in 0.695x PB's time on "
              "average)\n",
              static_cast<double>(totals[0]) /
                  static_cast<double>(totals[1]));
  return 0;
}
