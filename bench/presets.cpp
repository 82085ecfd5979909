#include "presets.hpp"

#include <csignal>
#include <cstdio>
#include <memory>

#include "core/analysis.hpp"
#include "topology/dragonfly.hpp"
#include "topology/hamiltonian.hpp"

namespace ofar::bench {

namespace {

/// CSV-name-safe tag: every non-alphanumeric character becomes '_' (the
/// same mapping the transient bench has always applied to "UN->ADV+2").
std::string sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out)
    if (!(c >= 'a' && c <= 'z') && !(c >= 'A' && c <= 'Z') &&
        !(c >= '0' && c <= '9') && c != '_')
      c = '_';
  return out;
}

std::string seed_tag(const ExperimentSpec& spec, std::size_t s) {
  return spec.seeds.size() > 1 ? "_seed" + std::to_string(spec.seeds[s]) : "";
}

std::string seed_title(const ExperimentSpec& spec, std::size_t s) {
  return spec.seeds.size() > 1
             ? " [seed " + std::to_string(spec.seeds[s]) + "]"
             : "";
}

// ---------------------------------------------------------------------------
// Generic renderers (one per RunKind). These reproduce the historical
// figure output exactly for the single-seed single-case shapes the legacy
// benches used; extra seeds/cases fan out into suffixed tables and CSVs.
// ---------------------------------------------------------------------------

void render_steady(const PresetUnit& unit,
                   const std::vector<PointOutcome>& out,
                   const BenchOptions& opts) {
  const ExperimentSpec& spec = unit.spec;
  const std::size_t M = spec.mechanisms.size();
  const std::size_t C = spec.patterns.size();
  const std::size_t L = spec.loads.size();

  std::vector<std::string> columns = {"offered_load"};
  for (const auto& m : spec.mechanisms) columns.push_back(m.label);

  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const std::string case_suffix =
          C > 1 ? "_" + sanitize(spec.patterns[c].name) : "";
      std::string title = spec.title;
      if (C > 1) title += " [" + spec.patterns[c].name + "]";
      title += seed_title(spec, s);

      Table latency(columns);
      Table throughput(columns);
      Table extras({"mechanism", "offered_load", "accepted", "mean_hops",
                    "local_mis", "global_mis", "ring_entries", "stalled"});
      for (std::size_t l = 0; l < L; ++l) {
        std::vector<Table::Cell> lat_row = {spec.loads[l]};
        std::vector<Table::Cell> thr_row = {spec.loads[l]};
        for (std::size_t m = 0; m < M; ++m) {
          const SteadyResult& r = out[((s * C + c) * L + l) * M + m].steady;
          lat_row.emplace_back(r.avg_latency);
          thr_row.emplace_back(r.accepted_load);
          extras.add_row({spec.mechanisms[m].label, spec.loads[l],
                          r.accepted_load, r.mean_hops, u64{r.local_misroutes},
                          u64{r.global_misroutes}, u64{r.ring_entries},
                          u64{r.stalled_packets}});
        }
        latency.add_row(std::move(lat_row));
        throughput.add_row(std::move(thr_row));
      }

      latency.print(title + " — (a) average latency [cycles]");
      throughput.print(title + " — (b) accepted load [phits/(node*cycle)]");
      const std::string base = spec.name + case_suffix + seed_tag(spec, s);
      dump_csv(latency, opts.csv_dir, base + "_latency");
      dump_csv(throughput, opts.csv_dir, base + "_throughput");
      dump_csv(extras, opts.csv_dir, base + "_detail");
    }
  }
}

void render_transient(const PresetUnit& unit,
                      const std::vector<PointOutcome>& out,
                      const BenchOptions& opts) {
  const ExperimentSpec& spec = unit.spec;
  const std::size_t M = spec.mechanisms.size();
  const std::size_t C = spec.transitions.size();

  std::vector<std::string> columns = {"cycle_rel"};
  for (const auto& m : spec.mechanisms) columns.push_back(m.label);

  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const TransitionSpec& tr = spec.transitions[c];
      const std::size_t base = (s * C + c) * M;
      Table table(columns);
      const auto& lead_series = out[base].transient.series;
      for (std::size_t i = 0; i < lead_series.size(); ++i) {
        std::vector<Table::Cell> row = {i64{lead_series[i].cycle_rel}};
        for (std::size_t m = 0; m < M; ++m)
          row.emplace_back(out[base + m].transient.series[i].mean_latency);
        table.add_row(std::move(row));
      }
      table.print(spec.title + ": mean latency by send-cycle, " + tr.name +
                  " @ load " + Table::format(tr.load_a) + seed_title(spec, s));
      dump_csv(table, opts.csv_dir,
               spec.name + "_" + sanitize(tr.name) + seed_tag(spec, s));
    }
  }
}

void render_burst(const PresetUnit& unit,
                  const std::vector<PointOutcome>& out,
                  const BenchOptions& opts) {
  const ExperimentSpec& spec = unit.spec;
  const std::size_t M = spec.mechanisms.size();
  const std::size_t C = spec.workloads.size();

  std::vector<std::string> columns = {"workload"};
  for (const auto& m : spec.mechanisms) columns.push_back(m.label + "_cycles");
  for (std::size_t m = 1; m < M; ++m)
    columns.push_back(spec.mechanisms[m].label + "/" +
                      spec.mechanisms[0].label);

  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    Table table(columns);
    double ratio_sum = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t base = (s * C + c) * M;
      for (std::size_t m = 0; m < M; ++m)
        if (!out[base + m].burst.completed)
          std::fprintf(stderr, "warning: %s on %s hit max-cycles\n",
                       spec.mechanisms[m].label.c_str(),
                       spec.workloads[c].name.c_str());
      const double baseline =
          static_cast<double>(out[base].burst.completion);
      std::vector<Table::Cell> row = {spec.workloads[c].name};
      for (std::size_t m = 0; m < M; ++m)
        row.emplace_back(u64{out[base + m].burst.completion});
      for (std::size_t m = 1; m < M; ++m)
        row.emplace_back(static_cast<double>(out[base + m].burst.completion) /
                         baseline);
      if (M >= 2)
        ratio_sum +=
            static_cast<double>(out[base + 1].burst.completion) / baseline;
      table.add_row(std::move(row));
    }
    table.print(spec.title + seed_title(spec, s));
    if (M >= 2)
      std::printf("\nmean %s/%s ratio over the %zu workloads: %.3f\n",
                  spec.mechanisms[1].label.c_str(),
                  spec.mechanisms[0].label.c_str(), C, ratio_sum / C);
    dump_csv(table, opts.csv_dir, spec.name + seed_tag(spec, s));
  }
}

/// Appends a spec-shaped unit (generic renderer) to a preset.
void push_spec_unit(PresetRun& r, ExperimentSpec spec) {
  PresetUnit unit;
  unit.points = spec.expand();
  unit.spec = std::move(spec);
  r.units.push_back(std::move(unit));
}

std::string format2(const char* fmt, double a) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a);
  return buf;
}

// ---------------------------------------------------------------------------
// Steady figure presets (pure cross products -> generic renderer)
// ---------------------------------------------------------------------------

PresetRun make_fig3(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const std::vector<double> loads = load_grid(cli, 0.05, 0.60, 8);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  ExperimentSpec s;
  s.name = "fig3";
  s.title = "Fig. 3: uniform random traffic (UN)";
  s.h = r.opts.h;
  s.seeds = {r.opts.seed};
  s.run = r.opts.run;
  s.loads = loads;
  s.patterns = {{"UN", TrafficPattern::uniform()}};
  s.mechanisms = {{"MIN", r.opts.config(RoutingKind::kMin)},
                  {"PB", r.opts.config(RoutingKind::kPb)},
                  {"OFAR", r.opts.config(RoutingKind::kOfar)},
                  {"OFAR-L", r.opts.config(RoutingKind::kOfarL)}};
  r.banner = "Fig. 3 (UN) on " + s.mechanisms[0].cfg.summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig4(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const std::vector<double> loads = load_grid(cli, 0.05, 0.45, 8);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  ExperimentSpec s;
  s.name = "fig4";
  s.title = "Fig. 4: adversarial +2 traffic (ADV+2)";
  s.h = r.opts.h;
  s.seeds = {r.opts.seed};
  s.run = r.opts.run;
  s.loads = loads;
  s.patterns = {{"ADV+2", TrafficPattern::adversarial(2)}};
  s.mechanisms = {{"VAL", r.opts.config(RoutingKind::kVal)},
                  {"PB", r.opts.config(RoutingKind::kPb)},
                  {"OFAR", r.opts.config(RoutingKind::kOfar)},
                  {"OFAR-L", r.opts.config(RoutingKind::kOfarL)}};
  r.banner = "Fig. 4 (ADV+2) on " + s.mechanisms[0].cfg.summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig5(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const std::vector<double> loads = load_grid(cli, 0.05, 0.45, 8);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  ExperimentSpec s;
  s.name = "fig5";
  s.title = "Fig. 5: worst-case adversarial traffic (ADV+h)";
  s.h = r.opts.h;
  s.seeds = {r.opts.seed};
  s.run = r.opts.run;
  s.loads = loads;
  s.patterns = {{"ADV+h", TrafficPattern::adversarial(r.opts.h)}};
  s.mechanisms = {{"VAL", r.opts.config(RoutingKind::kVal)},
                  {"PB", r.opts.config(RoutingKind::kPb)},
                  {"OFAR", r.opts.config(RoutingKind::kOfar)},
                  {"OFAR-L", r.opts.config(RoutingKind::kOfarL)}};
  r.banner = "Fig. 5 (ADV+h) on " + s.mechanisms[0].cfg.summary() + "\n" +
             format2("analytic ceilings: local-link 1/h = %.4f | Valiant "
                     "global 0.5\n",
                     1.0 / r.opts.h);
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig8(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const std::string which = cli.get_string("pattern", "both");
  const std::vector<double> un_loads = load_grid(cli, 0.05, 0.60, 6);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  SimConfig physical = r.opts.config(RoutingKind::kOfar);
  physical.ring = RingKind::kPhysical;
  SimConfig embedded = r.opts.config(RoutingKind::kOfar);
  embedded.ring = RingKind::kEmbedded;
  r.banner = "Fig. 8 (ring variants) on " + physical.summary() + "\n";

  auto make_variant = [&](const std::string& name, const std::string& title,
                          const NamedPattern& pattern,
                          const std::vector<double>& loads) {
    ExperimentSpec s;
    s.name = name;
    s.title = title;
    s.h = r.opts.h;
    s.seeds = {r.opts.seed};
    s.run = r.opts.run;
    s.loads = loads;
    s.patterns = {pattern};
    s.mechanisms = {{"OFAR-physical", physical}, {"OFAR-embedded", embedded}};
    push_spec_unit(r, std::move(s));
  };
  if (which == "both" || which == "UN")
    make_variant("fig8_un", "Fig. 8: physical vs embedded ring, UN",
                 {"UN", TrafficPattern::uniform()}, un_loads);
  if (which == "both" || which == "ADV") {
    std::vector<double> adv_loads;
    for (double l : un_loads) adv_loads.push_back(l * 0.45 / 0.60);
    make_variant("fig8_adv2", "Fig. 8: physical vs embedded ring, ADV+2",
                 {"ADV+2", TrafficPattern::adversarial(2)}, adv_loads);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Fig. 6 (transient) and Fig. 7 (burst)
// ---------------------------------------------------------------------------

PresetRun make_fig6(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 0, 0);
  ExperimentSpec s;
  s.kind = RunKind::kTransient;
  s.name = "fig6";
  s.title = "Fig. 6";
  s.transient.warmup = cli.get_uint("switch-at", 20'000);
  s.transient.horizon = cli.get_uint("horizon", 12'000);
  s.transient.lead = cli.get_uint("lead", 2'000);
  s.transient.drain = cli.get_uint("drain", 20'000);
  s.transient.bucket = static_cast<u32>(cli.get_uint("bucket", 500));
  const double load_main = cli.get_double("load", 0.14);
  const double load_advh = cli.get_double("load-advh", 0.12);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  s.h = r.opts.h;
  s.seeds = {r.opts.seed};
  s.transitions = {
      {"UN->ADV+2",
       {"UN", TrafficPattern::uniform()},
       {"ADV+2", TrafficPattern::adversarial(2)},
       load_main,
       load_main},
      {"ADV+2->UN",
       {"ADV+2", TrafficPattern::adversarial(2)},
       {"UN", TrafficPattern::uniform()},
       load_main,
       load_main},
      {"ADV+2->ADV+h",
       {"ADV+2", TrafficPattern::adversarial(2)},
       {"ADV+h", TrafficPattern::adversarial(r.opts.h)},
       load_advh,
       load_advh},
  };
  s.mechanisms = {{"PB", r.opts.config(RoutingKind::kPb)},
                  {"OFAR", r.opts.config(RoutingKind::kOfar)},
                  {"OFAR-L", r.opts.config(RoutingKind::kOfarL)}};
  r.banner = "Fig. 6 (transient) on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig7(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 0, 0);
  const u32 packets = static_cast<u32>(cli.get_uint("packets", 400));
  const Cycle max_cycles = cli.get_uint("max-cycles", 20'000'000);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  const u32 h = r.opts.h;
  ExperimentSpec s;
  s.kind = RunKind::kBurst;
  s.name = "fig7_bursts";
  s.title =
      "Fig. 7: burst consumption time (normalised to PB, lower is better)";
  s.h = h;
  s.seeds = {r.opts.seed};
  s.burst.packets_per_node = packets;
  s.burst.max_cycles = max_cycles;
  s.workloads = {
      {"UN", TrafficPattern::uniform()},
      {"ADV+2", TrafficPattern::adversarial(2)},
      {"ADV+h", TrafficPattern::adversarial(h)},
      {"MIX1", TrafficPattern::mix({{PatternKind::kUniform, 0, 0.8},
                                    {PatternKind::kAdversarial, 1, 0.1},
                                    {PatternKind::kAdversarial, h, 0.1}})},
      {"MIX2", TrafficPattern::mix({{PatternKind::kUniform, 0, 0.6},
                                    {PatternKind::kAdversarial, 1, 0.2},
                                    {PatternKind::kAdversarial, h, 0.2}})},
      {"MIX3", TrafficPattern::mix({{PatternKind::kUniform, 0, 0.2},
                                    {PatternKind::kAdversarial, 1, 0.4},
                                    {PatternKind::kAdversarial, h, 0.4}})},
  };
  s.mechanisms = {{"PB", r.opts.config(RoutingKind::kPb)},
                  {"OFAR", r.opts.config(RoutingKind::kOfar)},
                  {"OFAR-L", r.opts.config(RoutingKind::kOfarL)}};
  char head[192];
  std::snprintf(head, sizeof head,
                "Fig. 7 (bursts, %u packets/node) on %s\n"
                "paper reference: mean OFAR/PB 0.695, i.e. a 43.8%% speedup\n",
                packets, r.opts.config(RoutingKind::kOfar).summary().c_str());
  r.banner = head;
  push_spec_unit(r, std::move(s));
  return r;
}

// ---------------------------------------------------------------------------
// Bespoke presets (not pure cross products): Fig. 2b, Fig. 9, ablations.
// These build their RunPoints by hand — still executed and cached through
// the orchestrator — and carry custom renderers.
// ---------------------------------------------------------------------------

RunPoint steady_point(const SimConfig& cfg, u64 seed,
                      const std::string& mechanism,
                      const std::string& case_name,
                      const TrafficPattern& pattern, double load,
                      const RunParams& run) {
  RunPoint p;
  p.kind = RunKind::kSteady;
  p.mechanism = mechanism;
  p.case_name = case_name;
  p.seed = seed;
  p.cfg = cfg;
  p.cfg.seed = seed;
  p.pattern = pattern;
  p.load = load;
  p.run = run;
  return p;
}

PresetRun make_fig2(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const double offered = cli.get_double("offered", 0.35);
  const bool with_ofar = cli.get_bool("with-ofar", true);
  const bool analytic = cli.get_bool("analytic", true);
  const u32 max_offset =
      static_cast<u32>(cli.get_uint("max-offset", 2 * r.opts.h + 2));
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  const SimConfig val_cfg = r.opts.config(RoutingKind::kVal);
  const SimConfig ofar_cfg = r.opts.config(RoutingKind::kOfar);

  char head[192];
  std::snprintf(head, sizeof head,
                "Fig. 2b (ADV+N offset sweep) on %s, offered %.2f\n",
                val_cfg.summary().c_str(), offered);
  r.banner = head;
  if (analytic) {
    std::snprintf(head, sizeof head,
                  "§III analytic ceilings: UN/min 1.0 | Valiant global 0.5 | "
                  "minimal single global link 1/(2h^2) = %.4f | "
                  "local-link funnel at N = k*h: 1/h = %.4f\n",
                  1.0 / (2.0 * r.opts.h * r.opts.h), 1.0 / r.opts.h);
    r.banner += head;
  }

  PresetUnit unit;
  unit.spec.name = "fig2b_offset";
  unit.spec.h = r.opts.h;
  for (u32 offset = 1; offset <= max_offset; ++offset) {
    const TrafficPattern pattern = TrafficPattern::adversarial(offset);
    const std::string case_name = "ADV+" + std::to_string(offset);
    RunPoint p = steady_point(val_cfg, r.opts.seed, "VAL", case_name, pattern,
                              offered, r.opts.run);
    p.case_index = offset - 1;
    unit.points.push_back(p);
    if (with_ofar) {
      RunPoint q = steady_point(ofar_cfg, r.opts.seed, "OFAR", case_name,
                                pattern, offered, r.opts.run);
      q.mech_index = 1;
      q.case_index = offset - 1;
      unit.points.push_back(q);
    }
  }
  const u32 h = r.opts.h;
  unit.render = [with_ofar, max_offset, h](
                    const PresetUnit&, const std::vector<PointOutcome>& out,
                    const BenchOptions& opts) {
    std::vector<std::string> columns = {"offset", "VAL_predicted", "VAL"};
    if (with_ofar) columns.push_back("OFAR");
    Table table(columns);
    const Dragonfly topo(h);
    std::size_t idx = 0;
    for (u32 offset = 1; offset <= max_offset; ++offset) {
      std::vector<Table::Cell> row = {u64{offset}};
      row.emplace_back(analysis::valiant_adv_offset_ceiling(topo, offset));
      row.emplace_back(out[idx++].steady.accepted_load);
      if (with_ofar) row.emplace_back(out[idx++].steady.accepted_load);
      table.add_row(std::move(row));
    }
    table.print("Fig. 2b: accepted load vs ADV offset (dips at multiples of "
                "h=" + std::to_string(h) + ")");
    dump_csv(table, opts.csv_dir, "fig2b_offset");
  };
  r.units.push_back(std::move(unit));
  return r;
}

PresetRun make_fig9(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 5'000, 6'000);
  const std::vector<double> loads = load_grid(cli, 0.15, 0.6, 4);
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }
  SimConfig reduced = r.opts.config(RoutingKind::kOfar);
  reduced.ring = RingKind::kEmbedded;
  reduced.vcs_local = 2;
  reduced.vcs_global = 1;
  reduced.deadlock_timeout = 10'000;
  SimConfig full = r.opts.config(RoutingKind::kOfar);
  full.deadlock_timeout = 10'000;

  r.banner = "Fig. 9 (reduced VCs: 2 local / 1 global, embedded ring) on " +
             reduced.summary() + "\n";

  const std::vector<std::pair<std::string, TrafficPattern>> patterns = {
      {"UN", TrafficPattern::uniform()},
      {"ADV+2", TrafficPattern::adversarial(2)},
      {"ADV+h", TrafficPattern::adversarial(r.opts.h)},
  };
  PresetUnit unit;
  unit.spec.name = "fig9_reduced_vcs";
  unit.spec.h = r.opts.h;
  std::vector<std::string> pattern_names;
  for (std::size_t c = 0; c < patterns.size(); ++c) {
    pattern_names.push_back(patterns[c].first);
    for (std::size_t l = 0; l < loads.size(); ++l) {
      RunPoint p = steady_point(reduced, r.opts.seed, "reduced",
                                patterns[c].first, patterns[c].second,
                                loads[l], r.opts.run);
      p.case_index = static_cast<u32>(c);
      p.load_index = static_cast<u32>(l);
      unit.points.push_back(p);
      RunPoint q = steady_point(full, r.opts.seed, "full", patterns[c].first,
                                patterns[c].second, loads[l], r.opts.run);
      q.mech_index = 1;
      q.case_index = static_cast<u32>(c);
      q.load_index = static_cast<u32>(l);
      unit.points.push_back(q);
    }
  }
  unit.render = [pattern_names, loads](
                    const PresetUnit&, const std::vector<PointOutcome>& out,
                    const BenchOptions& opts) {
    Table table({"pattern", "offered", "accepted_reduced", "stalled_reduced",
                 "accepted_full", "stalled_full"});
    std::size_t idx = 0;
    for (const auto& name : pattern_names) {
      for (const double load : loads) {
        const SteadyResult& r_red = out[idx++].steady;
        const SteadyResult& r_full = out[idx++].steady;
        table.add_row({name, load, r_red.accepted_load,
                       u64{r_red.stalled_packets}, r_full.accepted_load,
                       u64{r_full.stalled_packets}});
      }
    }
    table.print("Fig. 9: throughput with reduced VCs (vs the full 3l/2g "
                "configuration)");
    dump_csv(table, opts.csv_dir, "fig9_reduced_vcs");
  };
  r.units.push_back(std::move(unit));
  return r;
}

PresetRun make_ablation_thresholds(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 4'000, 6'000);
  // Default scale h=3: the tuning trade-off shows at any radix, and the
  // interesting regimes sit at/past saturation where collapsed
  // configurations simulate slowly — h=3 keeps the full grid in minutes.
  if (!cli.has("h")) r.opts.h = 3;
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }

  struct Regime {
    std::string name;
    TrafficPattern pattern;
    double load;
  };
  const std::vector<Regime> regimes = {
      {"UN@0.30", TrafficPattern::uniform(), 0.30},
      {"UN@0.70", TrafficPattern::uniform(), 0.70},
      {"ADV+2@0.45", TrafficPattern::adversarial(2), 0.45},
      {"ADV+h@0.40", TrafficPattern::adversarial(r.opts.h), 0.40},
  };

  // Config grid: 4 factor variants, 4 gap variants, 2 policy modes — the
  // renderer slices these ranges back into the three historical tables.
  std::vector<std::pair<std::string, SimConfig>> configs;
  for (const double f : {0.5, 0.7, 0.9, 1.0}) {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.thresholds.nonmin_factor = f;
    configs.emplace_back("factor=" + Table::format(f), cfg);
  }
  for (const double g : {0.0, 0.1, 0.15, 0.25}) {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.thresholds.min_gap = g;
    configs.emplace_back("gap=" + Table::format(g), cfg);
  }
  {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    configs.emplace_back("variable 0.9*Qmin (paper default)", cfg);
    cfg.thresholds.variable = false;
    cfg.thresholds.th_min = 1.0;
    cfg.thresholds.th_nonmin_static = 0.4;
    configs.emplace_back("static Thmin=100% Thnonmin=40%", cfg);
  }

  r.banner = "OFAR threshold ablation on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";

  PresetUnit unit;
  unit.spec.name = "ablation_thresholds";
  unit.spec.h = r.opts.h;
  std::vector<std::string> labels;
  std::vector<std::string> regime_names;
  for (const auto& rg : regimes) regime_names.push_back(rg.name);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    labels.push_back(configs[i].first);
    for (std::size_t j = 0; j < regimes.size(); ++j) {
      RunPoint p = steady_point(configs[i].second, r.opts.seed,
                                configs[i].first, regimes[j].name,
                                regimes[j].pattern, regimes[j].load,
                                r.opts.run);
      p.mech_index = static_cast<u32>(i);
      p.case_index = static_cast<u32>(j);
      unit.points.push_back(p);
    }
  }
  const std::size_t n_regimes = regimes.size();
  unit.render = [labels, regime_names, n_regimes](
                    const PresetUnit&, const std::vector<PointOutcome>& out,
                    const BenchOptions& opts) {
    std::vector<std::string> columns = {"config"};
    for (const auto& name : regime_names) columns.push_back(name);
    auto rows = [&](Table& table, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<Table::Cell> row = {labels[i]};
        for (std::size_t j = 0; j < n_regimes; ++j)
          row.emplace_back(out[i * n_regimes + j].steady.accepted_load);
        table.add_row(std::move(row));
      }
    };
    Table factors(columns);
    rows(factors, 0, 4);
    factors.print("Variable policy: Th_nonmin = factor * Q_min "
                  "(accepted load per regime)");
    dump_csv(factors, opts.csv_dir, "ablation_factor");

    Table gaps(columns);
    rows(gaps, 4, 8);
    gaps.print("Occupancy-gap guard: candidate needs Q_min - Q >= gap");
    dump_csv(gaps, opts.csv_dir, "ablation_gap");

    Table modes(columns);
    rows(modes, 8, 10);
    modes.print("Variable vs static threshold policy (paper §IV-B)");
    dump_csv(modes, opts.csv_dir, "ablation_policy_mode");
  };
  r.units.push_back(std::move(unit));
  return r;
}

PresetRun make_ablation_congestion(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 4'000, 6'000);
  if (!cli.has("h")) r.opts.h = 3;
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }

  struct Scenario {
    std::string name;
    TrafficPattern pattern;
    double load;
    bool reduced_vcs;
  };
  const std::vector<Scenario> scenarios = {
      {"UN@0.45 full", TrafficPattern::uniform(), 0.45, false},
      {"UN@0.80 full", TrafficPattern::uniform(), 0.80, false},
      {"ADV+h@0.45 full", TrafficPattern::adversarial(r.opts.h), 0.45, false},
      {"UN@0.45 reducedVC", TrafficPattern::uniform(), 0.45, true},
      {"ADV+2@0.35 reducedVC", TrafficPattern::adversarial(2), 0.35, true},
  };

  r.banner = "Congestion-throttle ablation on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";

  PresetUnit unit;
  unit.spec.name = "ablation_congestion";
  unit.spec.h = r.opts.h;
  std::vector<std::string> names;
  for (std::size_t c = 0; c < scenarios.size(); ++c) {
    const Scenario& sc = scenarios[c];
    names.push_back(sc.name);
    SimConfig plain = r.opts.config(RoutingKind::kOfar);
    plain.deadlock_timeout = 10'000;
    if (sc.reduced_vcs) {
      plain.ring = RingKind::kEmbedded;
      plain.vcs_local = 2;
      plain.vcs_global = 1;
    }
    SimConfig throttled = plain;
    throttled.congestion_throttle = true;

    RunPoint p = steady_point(plain, r.opts.seed, "plain", sc.name,
                              sc.pattern, sc.load, r.opts.run);
    p.case_index = static_cast<u32>(c);
    unit.points.push_back(p);
    RunPoint q = steady_point(throttled, r.opts.seed, "throttled", sc.name,
                              sc.pattern, sc.load, r.opts.run);
    q.mech_index = 1;
    q.case_index = static_cast<u32>(c);
    unit.points.push_back(q);
  }
  unit.render = [names](const PresetUnit&,
                        const std::vector<PointOutcome>& out,
                        const BenchOptions& opts) {
    Table table({"scenario", "accepted_plain", "stalled_plain",
                 "accepted_throttled", "stalled_throttled"});
    std::size_t idx = 0;
    for (const auto& name : names) {
      const SteadyResult& r_plain = out[idx++].steady;
      const SteadyResult& r_throttled = out[idx++].steady;
      table.add_row({name, r_plain.accepted_load,
                     u64{r_plain.stalled_packets}, r_throttled.accepted_load,
                     u64{r_throttled.stalled_packets}});
    }
    table.print("Injection throttling vs collapse (accepted load; stalled = "
                "deadlock-watchdog hits)");
    dump_csv(table, opts.csv_dir, "ablation_congestion");
  };
  r.units.push_back(std::move(unit));
  return r;
}

PresetRun make_ablation_rings(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, 4'000, 6'000);
  if (!cli.has("h")) r.opts.h = 3;
  if (!reject_unknown(cli)) {
    r.ok = false;
    return r;
  }

  // Performance points: OFAR with the escape ring built at different
  // strides, and with different livelock budgets (max_ring_exits).
  const TrafficPattern pattern = TrafficPattern::adversarial(r.opts.h);
  const double load = 0.35;
  PresetUnit unit;
  unit.spec.name = "ablation_rings";
  unit.spec.h = r.opts.h;
  std::vector<std::string> labels;
  {
    const Dragonfly topo(r.opts.h);
    u32 mech = 0;
    for (const u32 stride : {1u, 2u, 3u}) {
      if (!HamiltonianRing::constructible(topo, stride)) continue;
      SimConfig cfg = r.opts.config(RoutingKind::kOfar);
      cfg.ring = RingKind::kEmbedded;
      cfg.ring_stride = stride;
      const std::string label = "stride=" + std::to_string(stride);
      labels.push_back(label);
      RunPoint p = steady_point(cfg, r.opts.seed, label, "ADV+h", pattern,
                                load, r.opts.run);
      p.mech_index = mech++;
      unit.points.push_back(p);
    }
    for (const u32 exits : {0u, 1u, 4u, 16u}) {
      SimConfig cfg = r.opts.config(RoutingKind::kOfar);
      cfg.max_ring_exits = exits;
      const std::string label = "max_exits=" + std::to_string(exits);
      labels.push_back(label);
      RunPoint p = steady_point(cfg, r.opts.seed, label, "ADV+h", pattern,
                                load, r.opts.run);
      p.mech_index = mech++;
      unit.points.push_back(p);
    }
  }
  unit.render = [labels, load](const PresetUnit&,
                               const std::vector<PointOutcome>& out,
                               const BenchOptions& opts) {
    // ---- (1) edge-disjoint embedded rings per radix (pure topology) ----
    Table rings({"h", "groups", "constructible_strides",
                 "edge_disjoint_rings", "paper_bound_h"});
    for (u32 h = 2; h <= 6; ++h) {
      Dragonfly topo(h);
      std::vector<std::unique_ptr<HamiltonianRing>> disjoint;
      u32 constructible = 0;
      for (u32 stride = 1; stride < topo.groups(); ++stride) {
        if (!HamiltonianRing::constructible(topo, stride)) continue;
        ++constructible;
        for (u32 variant = 0; variant < topo.a(); ++variant) {
          auto candidate =
              std::make_unique<HamiltonianRing>(topo, stride, variant);
          bool ok = true;
          for (const auto& existing : disjoint)
            if (!HamiltonianRing::edge_disjoint(topo, *existing,
                                                *candidate)) {
              ok = false;
              break;
            }
          if (ok) {
            disjoint.push_back(std::move(candidate));
            break;  // at most one ring per stride (distinct global links)
          }
        }
      }
      rings.add_row({u64{h}, u64{topo.groups()}, u64{constructible},
                     u64{disjoint.size()}, u64{h}});
    }
    rings.print("Edge-disjoint embedded Hamiltonian rings (greedy over "
                "strides; paper §VII claims up to h exist)");
    dump_csv(rings, opts.csv_dir, "ablation_rings_topology");

    // ---- (2) OFAR sensitivity to the escape ring's shape ----
    Table perf({"config", "accepted", "avg_latency", "ring_entries"});
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const SteadyResult& res = out[i].steady;
      perf.add_row({labels[i], res.accepted_load, res.avg_latency,
                    u64{res.ring_entries}});
    }
    perf.print("OFAR under ADV+h at load " + Table::format(load) +
               ": escape-ring shape sensitivity (should be flat)");
    dump_csv(perf, opts.csv_dir, "ablation_rings_perf");
  };
  r.units.push_back(std::move(unit));
  return r;
}

const std::vector<Preset> kPresets = {
    {"fig2", "Fig. 2b: Valiant throughput vs ADV+N offset", make_fig2},
    {"fig3", "Fig. 3: latency/throughput vs load, UN", make_fig3},
    {"fig4", "Fig. 4: latency/throughput vs load, ADV+2", make_fig4},
    {"fig5", "Fig. 5: latency/throughput vs load, ADV+h", make_fig5},
    {"fig6", "Fig. 6: transient adaptation, three transitions", make_fig6},
    {"fig7", "Fig. 7: burst consumption time, six workloads", make_fig7},
    {"fig8", "Fig. 8: physical vs embedded escape ring", make_fig8},
    {"fig9", "Fig. 9: reduced-VC configuration collapse", make_fig9},
    {"ablation_thresholds", "misroute-threshold policy tuning study",
     make_ablation_thresholds},
    {"ablation_congestion", "injection-throttle congestion management",
     make_ablation_congestion},
    {"ablation_rings", "escape-ring shape & edge-disjoint embedding",
     make_ablation_rings},
};

std::atomic<bool> g_stop{false};

void on_sigint(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

const std::vector<Preset>& presets() { return kPresets; }

const Preset* find_preset(const std::string& name) {
  for (const auto& p : kPresets)
    if (name == p.name) return &p;
  return nullptr;
}

void render_spec(const PresetUnit& unit,
                 const std::vector<PointOutcome>& outcomes,
                 const BenchOptions& opts) {
  switch (unit.spec.kind) {
    case RunKind::kSteady: render_steady(unit, outcomes, opts); break;
    case RunKind::kTransient: render_transient(unit, outcomes, opts); break;
    case RunKind::kBurst: render_burst(unit, outcomes, opts); break;
  }
}

const std::atomic<bool>* install_sigint_stop() {
  std::signal(SIGINT, on_sigint);
  return &g_stop;
}

int run_units(const std::vector<PresetUnit>& units, const BenchOptions& opts,
              const std::string& banner) {
  if (!banner.empty()) {
    std::fputs(banner.c_str(), stdout);
    std::fflush(stdout);
  }

  std::vector<RunPoint> all;
  for (const auto& u : units)
    all.insert(all.end(), u.points.begin(), u.points.end());

  OrchestratorOptions oo;
  oo.cache_dir = opts.no_cache ? std::string() : opts.cache_dir;
  oo.threads = opts.threads;
  oo.sim_threads = opts.sim_threads;
  oo.instrumentation = opts.instrumentation;
  oo.checkpoint_dir = opts.checkpoint_dir;
  oo.checkpoint_interval = opts.checkpoint_interval;
  oo.stop_flag = opts.stop_flag;
  oo.stop_after = opts.stop_after;

  const RunReport report = run_points(all, oo);

  if (!report.complete()) {
    std::printf("summary: points=%zu hits=%zu executed=%zu missing=%zu\n",
                all.size(), report.hits, report.executed, report.missing);
    if (!report.journal_path.empty())
      std::printf("interrupted: rerun the same command to resume from %s\n",
                  report.journal_path.c_str());
    else
      std::printf("interrupted: %zu point(s) lost (pass --cache-dir to make "
                  "runs resumable)\n",
                  report.missing);
    return 130;
  }

  std::size_t offset = 0;
  for (const auto& u : units) {
    std::vector<PointOutcome> slice(
        report.outcomes.begin() + static_cast<std::ptrdiff_t>(offset),
        report.outcomes.begin() +
            static_cast<std::ptrdiff_t>(offset + u.points.size()));
    offset += u.points.size();
    if (u.render)
      u.render(u, slice, opts);
    else
      render_spec(u, slice, opts);
  }

  std::printf("summary: points=%zu hits=%zu executed=%zu missing=%zu\n",
              all.size(), report.hits, report.executed, report.missing);
  std::printf("results digest: %s\n", results_digest(all, report).c_str());
  return 0;
}

int run_preset_main(const std::string& name, int argc, char** argv,
                    const std::string& default_cache_dir) {
  CommandLine cli(argc, argv);
  // Driver-level keys (consumed by ofar_run's dispatch) must not trip the
  // presets' unknown-option check when forwarded verbatim.
  (void)cli.get_string("preset", "");
  (void)cli.get_string("spec", "");
  (void)cli.get_flag("list");
  (void)cli.get_flag("help");

  const Preset* preset = find_preset(name);
  if (preset == nullptr) {
    std::fprintf(stderr, "unknown preset '%s' (try --list)\n", name.c_str());
    return 1;
  }
  PresetRun run = preset->make(cli);
  if (!run.ok) return 1;
  if (run.opts.cache_dir.empty() && !run.opts.no_cache)
    run.opts.cache_dir = default_cache_dir;
  run.opts.stop_flag = install_sigint_stop();
  return run_units(run.units, run.opts, run.banner);
}

}  // namespace ofar::bench
