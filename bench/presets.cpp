#include "presets.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <memory>

#include "core/analysis.hpp"
#include "stats/sink.hpp"
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

void render_steady(const ExperimentSpec& spec,
                   const std::vector<PointOutcome>& out,
                   const BenchOptions& opts) {
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

void render_transient(const ExperimentSpec& spec,
                      const std::vector<PointOutcome>& out,
                      const BenchOptions& opts) {
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

void render_burst(const ExperimentSpec& spec,
                  const std::vector<PointOutcome>& out,
                  const BenchOptions& opts) {
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

/// The generic renderer of a one-spec unit, by the spec's kind.
void render_spec(const ExperimentSpec& spec,
                 const std::vector<PointOutcome>& out,
                 const BenchOptions& opts) {
  switch (spec.kind) {
    case RunKind::kSteady: render_steady(spec, out, opts); break;
    case RunKind::kTransient: render_transient(spec, out, opts); break;
    case RunKind::kBurst: render_burst(spec, out, opts); break;
  }
}

/// A spec on the options' network, seed and steady windows.
ExperimentSpec spec_for(const BenchOptions& o, std::string name,
                        std::string title = "",
                        RunKind kind = RunKind::kSteady) {
  ExperimentSpec s;
  s.kind = kind;
  s.name = std::move(name);
  s.title = std::move(title);
  s.h = o.h;
  s.seeds = {o.seed};
  s.run = o.run;
  return s;
}

/// One curve per mechanism, labelled by its name, on the paper's ring.
std::vector<MechanismEntry> curves(const BenchOptions& o,
                                   std::initializer_list<RoutingKind> kinds) {
  std::vector<MechanismEntry> out;
  for (const RoutingKind k : kinds) out.push_back({to_string(k), o.config(k)});
  return out;
}

/// Appends a one-spec unit (generic renderer) to a preset.
void push_spec_unit(PresetRun& r, ExperimentSpec spec) {
  r.units.push_back({{std::move(spec)}, nullptr});
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
  r.opts = BenchOptions::parse(cli);
  ExperimentSpec s =
      spec_for(r.opts, "fig3", "Fig. 3: uniform random traffic (UN)");
  s.loads = load_grid(cli, 0.05, 0.60, 8);
  s.patterns = {{"UN", TrafficPattern::uniform()}};
  s.mechanisms = curves(r.opts, {RoutingKind::kMin, RoutingKind::kPb,
                                 RoutingKind::kOfar, RoutingKind::kOfarL});
  r.banner = "Fig. 3 (UN) on " + s.mechanisms[0].cfg.summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig4(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli);
  ExperimentSpec s =
      spec_for(r.opts, "fig4", "Fig. 4: adversarial +2 traffic (ADV+2)");
  s.loads = load_grid(cli, 0.05, 0.45, 8);
  s.patterns = {{"ADV+2", TrafficPattern::adversarial(2)}};
  s.mechanisms = curves(r.opts, {RoutingKind::kVal, RoutingKind::kPb,
                                 RoutingKind::kOfar, RoutingKind::kOfarL});
  r.banner = "Fig. 4 (ADV+2) on " + s.mechanisms[0].cfg.summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig5(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli);
  ExperimentSpec s = spec_for(
      r.opts, "fig5", "Fig. 5: worst-case adversarial traffic (ADV+h)");
  s.loads = load_grid(cli, 0.05, 0.45, 8);
  s.patterns = {{"ADV+h", TrafficPattern::adversarial(r.opts.h)}};
  s.mechanisms = curves(r.opts, {RoutingKind::kVal, RoutingKind::kPb,
                                 RoutingKind::kOfar, RoutingKind::kOfarL});
  r.banner = "Fig. 5 (ADV+h) on " + s.mechanisms[0].cfg.summary() + "\n" +
             format2("analytic ceilings: local-link 1/h = %.4f | Valiant "
                     "global 0.5\n",
                     1.0 / r.opts.h);
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig8(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli);
  const std::string which = cli.get_string("pattern", "both");
  const std::vector<double> un_loads = load_grid(cli, 0.05, 0.60, 6);
  SimConfig physical = r.opts.config(RoutingKind::kOfar);
  physical.ring = RingKind::kPhysical;
  SimConfig embedded = r.opts.config(RoutingKind::kOfar);
  embedded.ring = RingKind::kEmbedded;
  r.banner = "Fig. 8 (ring variants) on " + physical.summary() + "\n";

  auto make_variant = [&](const std::string& name, const std::string& title,
                          const NamedPattern& pattern,
                          const std::vector<double>& loads) {
    ExperimentSpec s = spec_for(r.opts, name, title);
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
  r.opts = BenchOptions::parse(cli, /*steady=*/false);
  ExperimentSpec s = spec_for(r.opts, "fig6", "Fig. 6", RunKind::kTransient);
  TransientParams& t = s.transient;
  t.warmup = cli.get_uint("switch-at", t.warmup);
  t.horizon = cli.get_uint("horizon", t.horizon);
  t.lead = cli.get_uint("lead", t.lead);
  t.drain = cli.get_uint("drain", t.drain);
  t.bucket = static_cast<u32>(cli.get_uint("bucket", t.bucket));
  const double load_main = cli.get_double("load", 0.14);
  const double load_advh = cli.get_double("load-advh", 0.12);
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
  s.mechanisms = curves(
      r.opts, {RoutingKind::kPb, RoutingKind::kOfar, RoutingKind::kOfarL});
  r.banner = "Fig. 6 (transient) on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";
  push_spec_unit(r, std::move(s));
  return r;
}

PresetRun make_fig7(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli, /*steady=*/false);
  const u32 h = r.opts.h;
  ExperimentSpec s = spec_for(
      r.opts, "fig7_bursts",
      "Fig. 7: burst consumption time (normalised to PB, lower is better)",
      RunKind::kBurst);
  BurstParams& b = s.burst;
  b.packets_per_node =
      static_cast<u32>(cli.get_uint("packets", b.packets_per_node));
  b.max_cycles = cli.get_uint("max-cycles", b.max_cycles);
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
  s.mechanisms = curves(
      r.opts, {RoutingKind::kPb, RoutingKind::kOfar, RoutingKind::kOfarL});
  char head[192];
  std::snprintf(head, sizeof head,
                "Fig. 7 (bursts, %u packets/node) on %s\n"
                "paper reference: mean OFAR/PB 0.695, i.e. a 43.8%% speedup\n",
                b.packets_per_node,
                r.opts.config(RoutingKind::kOfar).summary().c_str());
  r.banner = head;
  push_spec_unit(r, std::move(s));
  return r;
}

// ---------------------------------------------------------------------------
// Presets with their own tables: Fig. 2b, Fig. 9 and the ablations. Their
// specs expand like any other; each renderer reads its grid back from its
// unit's specs.
// ---------------------------------------------------------------------------

PresetRun make_fig2(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli);
  const double offered = cli.get_double("offered", 0.35);
  const bool with_ofar = cli.get_bool("with-ofar", true);
  const bool analytic = cli.get_bool("analytic", true);
  const u32 max_offset =
      static_cast<u32>(cli.get_uint("max-offset", 2 * r.opts.h + 2));
  const SimConfig val_cfg = r.opts.config(RoutingKind::kVal);

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

  ExperimentSpec s = spec_for(r.opts, "fig2b_offset");
  for (u32 offset = 1; offset <= max_offset; ++offset)
    s.patterns.push_back({"ADV+" + std::to_string(offset),
                          TrafficPattern::adversarial(offset)});
  s.loads = {offered};
  s.mechanisms = with_ofar ? curves(r.opts, {RoutingKind::kVal,
                                             RoutingKind::kOfar})
                           : curves(r.opts, {RoutingKind::kVal});
  const auto render = [](const PresetUnit& unit,
                         const std::vector<PointOutcome>& out,
                         const BenchOptions& opts) {
    const ExperimentSpec& spec = unit.specs[0];
    const std::size_t M = spec.mechanisms.size();
    std::vector<std::string> columns = {"offset", "VAL_predicted"};
    for (const auto& m : spec.mechanisms) columns.push_back(m.label);
    Table table(columns);
    const Dragonfly topo(spec.h);
    for (u32 c = 0; c < spec.patterns.size(); ++c) {
      std::vector<Table::Cell> row = {u64{c + 1}};
      row.emplace_back(analysis::valiant_adv_offset_ceiling(topo, c + 1));
      for (std::size_t m = 0; m < M; ++m)
        row.emplace_back(out[c * M + m].steady.accepted_load);
      table.add_row(std::move(row));
    }
    table.print("Fig. 2b: accepted load vs ADV offset (dips at multiples of "
                "h=" + std::to_string(spec.h) + ")");
    dump_csv(table, opts.csv_dir, "fig2b_offset");
  };
  r.units.push_back({{std::move(s)}, render});
  return r;
}

PresetRun make_fig9(const CommandLine& cli) {
  PresetRun r;
  r.opts = BenchOptions::parse(cli);
  SimConfig reduced = r.opts.config(RoutingKind::kOfar);
  reduced.ring = RingKind::kEmbedded;
  reduced.vcs_local = 2;
  reduced.vcs_global = 1;
  reduced.deadlock_timeout = 10'000;
  SimConfig full = r.opts.config(RoutingKind::kOfar);
  full.deadlock_timeout = 10'000;

  r.banner = "Fig. 9 (reduced VCs: 2 local / 1 global, embedded ring) on " +
             reduced.summary() + "\n";

  ExperimentSpec s = spec_for(r.opts, "fig9_reduced_vcs");
  s.loads = load_grid(cli, 0.15, 0.6, 4);
  s.patterns = {{"UN", TrafficPattern::uniform()},
                {"ADV+2", TrafficPattern::adversarial(2)},
                {"ADV+h", TrafficPattern::adversarial(r.opts.h)}};
  s.mechanisms = {{"reduced", reduced}, {"full", full}};
  const auto render = [](const PresetUnit& unit,
                         const std::vector<PointOutcome>& out,
                         const BenchOptions& opts) {
    const ExperimentSpec& spec = unit.specs[0];
    Table table({"pattern", "offered", "accepted_reduced", "stalled_reduced",
                 "accepted_full", "stalled_full"});
    std::size_t idx = 0;
    for (const auto& pattern : spec.patterns) {
      for (const double load : spec.loads) {
        const SteadyResult& r_red = out[idx++].steady;
        const SteadyResult& r_full = out[idx++].steady;
        table.add_row({pattern.name, load, r_red.accepted_load,
                       u64{r_red.stalled_packets}, r_full.accepted_load,
                       u64{r_full.stalled_packets}});
      }
    }
    table.print("Fig. 9: throughput with reduced VCs (vs the full 3l/2g "
                "configuration)");
    dump_csv(table, opts.csv_dir, "fig9_reduced_vcs");
  };
  r.units.push_back({{std::move(s)}, render});
  return r;
}

/// A one-point-per-curve spec: one named pattern at one load.
ExperimentSpec regime(const BenchOptions& o, const std::string& name,
                      NamedPattern pattern, double load,
                      std::vector<MechanismEntry> curves) {
  ExperimentSpec s = spec_for(o, name);
  s.patterns = {std::move(pattern)};
  s.loads = {load};
  s.mechanisms = std::move(curves);
  return s;
}

/// The ablations' defaults: h=3 and a 4,000-cycle warm-up. Their
/// trade-offs show at any radix, and the interesting regimes sit at/past
/// saturation where collapsed configurations simulate slowly — h=3 keeps
/// each grid in minutes.
BenchOptions ablation_options(const CommandLine& cli) {
  BenchOptions o = BenchOptions::parse(cli);
  if (!cli.has("h")) o.h = 3;
  if (!cli.has("warmup")) o.run.warmup = 4'000;
  return o;
}

PresetRun make_ablation_thresholds(const CommandLine& cli) {
  PresetRun r;
  r.opts = ablation_options(cli);

  // Config grid: 4 factor variants, 4 gap variants, 2 policy modes — the
  // renderer slices these ranges back into the three historical tables.
  std::vector<MechanismEntry> configs;
  for (const double f : {0.5, 0.7, 0.9, 1.0}) {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.thresholds.nonmin_factor = f;
    configs.push_back({"factor=" + Table::format(f), cfg});
  }
  for (const double g : {0.0, 0.1, 0.15, 0.25}) {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.thresholds.min_gap = g;
    configs.push_back({"gap=" + Table::format(g), cfg});
  }
  {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    configs.push_back({"variable 0.9*Qmin (paper default)", cfg});
    cfg.thresholds.variable = false;
    cfg.thresholds.th_min = 1.0;
    cfg.thresholds.th_nonmin_static = 0.4;
    configs.push_back({"static Thmin=100% Thnonmin=40%", cfg});
  }

  r.banner = "OFAR threshold ablation on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";

  const auto render = [](const PresetUnit& unit,
                         const std::vector<PointOutcome>& out,
                         const BenchOptions& opts) {
    // One spec per regime, so outcome (regime j, config i) is at
    // j * configs + i.
    const std::vector<MechanismEntry>& configs = unit.specs[0].mechanisms;
    std::vector<std::string> columns = {"config"};
    for (const auto& spec : unit.specs)
      columns.push_back(spec.patterns[0].name);
    auto rows = [&](Table& table, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<Table::Cell> row = {configs[i].label};
        for (std::size_t j = 0; j < unit.specs.size(); ++j)
          row.emplace_back(out[j * configs.size() + i].steady.accepted_load);
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
  const std::string name = "ablation_thresholds";
  const TrafficPattern un = TrafficPattern::uniform();
  r.units.push_back(
      {{regime(r.opts, name, {"UN@0.30", un}, 0.30, configs),
        regime(r.opts, name, {"UN@0.70", un}, 0.70, configs),
        regime(r.opts, name, {"ADV+2@0.45", TrafficPattern::adversarial(2)},
               0.45, configs),
        regime(r.opts, name,
               {"ADV+h@0.40", TrafficPattern::adversarial(r.opts.h)}, 0.40,
               configs)},
       render});
  return r;
}

PresetRun make_ablation_congestion(const CommandLine& cli) {
  PresetRun r;
  r.opts = ablation_options(cli);

  r.banner = "Congestion-throttle ablation on " +
             r.opts.config(RoutingKind::kOfar).summary() + "\n";

  // Each scenario runs plain and throttled on the full or the reduced-VC
  // configuration.
  SimConfig full = r.opts.config(RoutingKind::kOfar);
  full.deadlock_timeout = 10'000;
  SimConfig reduced = full;
  reduced.ring = RingKind::kEmbedded;
  reduced.vcs_local = 2;
  reduced.vcs_global = 1;
  const auto plain_and_throttled = [](const SimConfig& plain) {
    SimConfig throttled = plain;
    throttled.congestion_throttle = true;
    return std::vector<MechanismEntry>{{"plain", plain},
                                       {"throttled", throttled}};
  };
  const std::vector<MechanismEntry> on_full = plain_and_throttled(full);
  const std::vector<MechanismEntry> on_reduced = plain_and_throttled(reduced);
  const std::string name = "ablation_congestion";
  const TrafficPattern un = TrafficPattern::uniform();
  const TrafficPattern advh = TrafficPattern::adversarial(r.opts.h);
  const auto render = [](const PresetUnit& unit,
                         const std::vector<PointOutcome>& out,
                         const BenchOptions& opts) {
    Table table({"scenario", "accepted_plain", "stalled_plain",
                 "accepted_throttled", "stalled_throttled"});
    std::size_t idx = 0;
    for (const auto& scenario : unit.specs) {
      const SteadyResult& r_plain = out[idx++].steady;
      const SteadyResult& r_throttled = out[idx++].steady;
      table.add_row({scenario.patterns[0].name, r_plain.accepted_load,
                     u64{r_plain.stalled_packets}, r_throttled.accepted_load,
                     u64{r_throttled.stalled_packets}});
    }
    table.print("Injection throttling vs collapse (accepted load; stalled = "
                "deadlock-watchdog hits)");
    dump_csv(table, opts.csv_dir, "ablation_congestion");
  };
  r.units.push_back(
      {{regime(r.opts, name, {"UN@0.45 full", un}, 0.45, on_full),
        regime(r.opts, name, {"UN@0.80 full", un}, 0.80, on_full),
        regime(r.opts, name, {"ADV+h@0.45 full", advh}, 0.45, on_full),
        regime(r.opts, name, {"UN@0.45 reducedVC", un}, 0.45, on_reduced),
        regime(r.opts, name,
               {"ADV+2@0.35 reducedVC", TrafficPattern::adversarial(2)},
               0.35, on_reduced)},
       render});
  return r;
}

PresetRun make_ablation_rings(const CommandLine& cli) {
  PresetRun r;
  r.opts = ablation_options(cli);

  // Performance points: OFAR with the escape ring built at different
  // strides, and with different livelock budgets (max_ring_exits).
  ExperimentSpec s = spec_for(r.opts, "ablation_rings");
  s.patterns = {{"ADV+h", TrafficPattern::adversarial(r.opts.h)}};
  s.loads = {0.35};
  const Dragonfly topo(r.opts.h);
  for (const u32 stride : {1u, 2u, 3u}) {
    if (!HamiltonianRing::constructible(topo, stride)) continue;
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.ring = RingKind::kEmbedded;
    cfg.ring_stride = stride;
    s.mechanisms.push_back({"stride=" + std::to_string(stride), cfg});
  }
  for (const u32 exits : {0u, 1u, 4u, 16u}) {
    SimConfig cfg = r.opts.config(RoutingKind::kOfar);
    cfg.max_ring_exits = exits;
    s.mechanisms.push_back({"max_exits=" + std::to_string(exits), cfg});
  }
  const auto render = [](const PresetUnit& unit,
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
    const ExperimentSpec& spec = unit.specs[0];
    Table perf({"config", "accepted", "avg_latency", "ring_entries"});
    for (std::size_t i = 0; i < spec.mechanisms.size(); ++i) {
      const SteadyResult& res = out[i].steady;
      perf.add_row({spec.mechanisms[i].label, res.accepted_load,
                    res.avg_latency, u64{res.ring_entries}});
    }
    perf.print("OFAR under ADV+h at load " + Table::format(spec.loads[0]) +
               ": escape-ring shape sensitivity (should be flat)");
    dump_csv(perf, opts.csv_dir, "ablation_rings_perf");
  };
  r.units.push_back({{std::move(s)}, render});
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

/// The command line with the driver-level keys (consumed by ofar_run's
/// dispatch) marked read, so forwarding them verbatim does not trip the
/// unknown-option check.
CommandLine driver_cli(int argc, char** argv) {
  CommandLine cli(argc, argv);
  (void)cli.get_string("preset", "");
  (void)cli.get_string("spec", "");
  (void)cli.get_flag("list");
  (void)cli.get_flag("help");
  return cli;
}

}  // namespace

std::vector<RunPoint> PresetUnit::points() const {
  std::vector<RunPoint> out;
  for (const ExperimentSpec& spec : specs) {
    std::vector<RunPoint> points = spec.expand();
    out.insert(out.end(), std::make_move_iterator(points.begin()),
               std::make_move_iterator(points.end()));
  }
  return out;
}

const std::vector<Preset>& presets() { return kPresets; }

const Preset* find_preset(const std::string& name) {
  for (const auto& p : kPresets)
    if (name == p.name) return &p;
  return nullptr;
}

int run_units(const PresetRun& run) {
  // A spec the kernel cannot hold (a preset's --h can make one) stops the
  // run before its banner, and so does an output that cannot be written.
  for (const PresetUnit& u : run.units) {
    for (const ExperimentSpec& spec : u.specs) {
      const std::string err = spec.validate();
      if (!err.empty()) {
        std::fprintf(stderr, "error: %s: %s\n", spec.name.c_str(),
                     err.c_str());
        return 1;
      }
    }
  }
  // Per-point trace files are named in --trace-out's directory, so checking
  // that directory covers them too; CSV tables go into --csv-dir ("" writes
  // none).
  const auto cannot_write = [](const std::string& path) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  };
  std::error_code ec;
  const std::string& trace_out = run.opts.orch.instrumentation.trace_out;
  if (!trace_out.empty()) {
    const std::filesystem::path dir =
        std::filesystem::path(trace_out).parent_path();
    if (!std::filesystem::is_directory(dir.empty() ? "." : dir, ec))
      return cannot_write(trace_out);
  }
  const std::string& csv_dir = run.opts.csv_dir;
  if (!csv_dir.empty() && !std::filesystem::is_directory(csv_dir, ec))
    return cannot_write(csv_dir);
  // One sink for every simulation of the run (thread-safe: parallel points
  // interleave whole records, each labelled "<case>|<mechanism>").
  std::unique_ptr<MetricsSink> metrics;
  if (!run.opts.metrics_out.empty()) {
    metrics = MetricsSink::open(run.opts.metrics_out);
    if (metrics == nullptr) return cannot_write(run.opts.metrics_out);
  }

  if (!run.banner.empty()) {
    std::fputs(run.banner.c_str(), stdout);
    std::fflush(stdout);
  }

  std::vector<RunPoint> all;
  std::vector<std::size_t> ends;  // one past each unit's last point
  for (const auto& u : run.units) {
    const std::vector<RunPoint> points = u.points();
    all.insert(all.end(), points.begin(), points.end());
    ends.push_back(all.size());
  }

  OrchestratorOptions oo = run.opts.orch;
  oo.instrumentation.metrics_sink = metrics.get();
  std::signal(SIGINT, on_sigint);
  oo.stop_flag = &g_stop;
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

  std::size_t begin = 0;
  for (std::size_t i = 0; i < run.units.size(); ++i) {
    const PresetUnit& u = run.units[i];
    const std::vector<PointOutcome> slice(
        report.outcomes.begin() + static_cast<std::ptrdiff_t>(begin),
        report.outcomes.begin() + static_cast<std::ptrdiff_t>(ends[i]));
    begin = ends[i];
    if (u.render)
      u.render(u, slice, run.opts);
    else
      render_spec(u.specs[0], slice, run.opts);
  }

  std::printf("summary: points=%zu hits=%zu executed=%zu missing=%zu\n",
              all.size(), report.hits, report.executed, report.missing);
  std::printf("results digest: %s\n", results_digest(all, report).c_str());
  return 0;
}

int run_preset_main(const std::string& name, int argc, char** argv) {
  const CommandLine cli = driver_cli(argc, argv);
  const Preset* preset = find_preset(name);
  if (preset == nullptr) {
    std::fprintf(stderr, "unknown preset '%s' (try --list)\n", name.c_str());
    return 1;
  }
  const PresetRun run = preset->make(cli);
  if (!reject_unknown(cli)) return 1;
  return run_units(run);
}

int run_spec_main(const std::string& path, int argc, char** argv) {
  const CommandLine cli = driver_cli(argc, argv);
  ExperimentSpec spec;
  std::string error;
  if (!spec_from_file(path, spec, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  PresetRun run;
  run.opts = BenchOptions::parse_execution(cli);
  if (!reject_unknown(cli)) return 1;
  run.banner = spec.name + " (" + to_string(spec.kind) + ", " +
               std::to_string(spec.expand().size()) + " points) from " +
               path + "\n";
  run.units.push_back({{std::move(spec)}, nullptr});
  return run_units(run);
}

}  // namespace ofar::bench
