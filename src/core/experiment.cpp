#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/checkpoint.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"
#include "traffic/generator.hpp"

namespace ofar {

namespace {

std::string compose_label(const std::string& base,
                          const std::string& suffix) {
  if (base.empty()) return suffix;
  if (suffix.empty()) return base;
  return base + "|" + suffix;
}

/// "traces/t.json" + "adv|OFAR|load=0.4", seed 7 ->
/// "traces/t.adv_OFAR_load_0.4-s7.json": a filesystem-safe per-run name so
/// sweep points sharing one params object write distinct files.
std::string per_point_path(const std::string& path, const std::string& label,
                           u64 seed) {
  if (path.empty()) return path;
  std::string tag;
  for (const char c : label) {
    const bool keep = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                      (c >= 'A' && c <= 'Z') || c == '.' || c == '-';
    tag += keep ? c : '_';
  }
  if (!tag.empty()) tag += '-';
  tag += 's' + std::to_string(seed);
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + tag;
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// Wires auditing, tracing and telemetry into a freshly built network,
/// before its first cycle. The telemetry record label and trace label are
/// "<ctx.label>|<label_suffix>" (either part optional).
void arm(Network& net, const RunContext& ctx,
         const std::string& label_suffix = "") {
  const Instrumentation& in = ctx.instrumentation;
  net.set_sim_threads(ctx.sim_threads);
  if (in.audit_interval > 0) net.enable_audit(in.audit_interval);
  const std::string label = compose_label(ctx.label, label_suffix);
  if (!in.trace_out.empty()) {
    trace::TracerConfig tc;
    tc.out_path = ctx.trace_per_point
                      ? per_point_path(in.trace_out, label, net.config().seed)
                      : in.trace_out;
    tc.sample = in.trace_sample;
    tc.label = label;
    net.enable_tracing(tc);
  }
  if (in.metrics_sink == nullptr) return;
  TelemetryConfig tc;
  tc.sink = in.metrics_sink;
  tc.interval = in.metrics_interval;
  tc.full_dump = in.metrics_full;
  tc.label = label;
  net.enable_telemetry(tc);
}

}  // namespace

SteadyResult run_steady(const SimConfig& cfg, const TrafficPattern& pattern,
                        double load, const RunParams& params,
                        const RunContext& ctx) {
  const auto fresh = [&] {
    auto net = std::make_unique<Network>(cfg);
    net->set_traffic(
        std::make_unique<BernoulliSource>(pattern, load, cfg.seed));
    return net;
  };
  std::unique_ptr<Network> built = fresh();
  // Checkpoint/restart (core/checkpoint.hpp): resume from an existing
  // snapshot if one matches, then run in interval-sized chunks with a
  // refresh between chunks. A snapshot that exists but is rejected leaves
  // a partly written network, so the point restarts on a fresh one. A cold
  // run with no checkpoint path takes the two plain run() calls below —
  // same cycles, same results.
  const std::string& path = ctx.checkpoint_path;
  const bool ckpt = !path.empty();
  std::string error;
  if (ckpt && !CheckpointIO::restore(*built, path, &error) &&
      std::filesystem::exists(path)) {
    std::fprintf(stderr,
                 "warning: checkpoint %s rejected (%s); restarting the "
                 "point from cycle 0\n",
                 path.c_str(), error.c_str());
    built = fresh();
  }
  Network& net = *built;
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "load=%g", load);
  arm(net, ctx, suffix);

  const auto run_to = [&](Cycle target) {
    while (net.now() < target) {
      Cycle chunk = target - net.now();
      if (ckpt && ctx.checkpoint_interval > 0)
        chunk = std::min(chunk, ctx.checkpoint_interval);
      net.run(chunk);
      if (ckpt && net.now() < target) CheckpointIO::save(net, path);
    }
  };
  if (net.now() < params.warmup) {
    run_to(params.warmup);
    net.stats().reset(net.now());
    // Snapshot the post-reset boundary so a resume never repeats warmup.
    if (ckpt) CheckpointIO::save(net, path);
  }
  run_to(params.warmup + params.measure);
  if (ckpt) std::remove(path.c_str());
  if (net.telemetry() != nullptr) net.telemetry()->write_summary(net);

  const Stats& s = net.stats();
  SteadyResult out;
  out.offered_load = s.offered_load(net.now(), net.topo().nodes());
  out.accepted_load = s.accepted_load(net.now(), net.topo().nodes());
  out.avg_latency = s.latency().mean();
  out.stddev_latency = s.latency().stddev();
  out.delivered_packets = s.delivered_packets();
  out.local_misroutes = s.local_misroutes();
  out.global_misroutes = s.global_misroutes();
  out.ring_entries = s.ring_entries();
  out.stalled_packets = s.stalled_packets();
  out.worst_stall = s.worst_stall();
  out.mean_hops = s.mean_hops();
  return out;
}

TransientResult run_transient(const SimConfig& cfg,
                              const TrafficPattern& pattern_a, double load_a,
                              const TrafficPattern& pattern_b, double load_b,
                              const TransientParams& params,
                              const RunContext& ctx) {
  Network net(cfg);
  const Cycle switch_at = params.warmup;
  std::vector<PhasedSource::Phase> phases;
  phases.push_back({pattern_a, load_a, switch_at});
  phases.push_back({pattern_b, load_b, /*until=*/0});
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), cfg.seed));
  arm(net, ctx);

  const Cycle series_start = switch_at > params.lead ? switch_at - params.lead
                                                     : 0;
  net.stats().enable_timeseries(series_start, params.lead + params.horizon,
                                params.bucket);
  net.run(switch_at + params.horizon + params.drain);
  if (net.telemetry() != nullptr) net.telemetry()->write_summary(net);

  TransientResult out;
  const TimeSeries* ts = net.stats().series();
  for (std::size_t i = 0; i < ts->num_buckets(); ++i) {
    const auto& b = ts->bucket(i);
    TransientBucket tb;
    tb.cycle_rel = static_cast<i64>(ts->bucket_mid(i)) -
                   static_cast<i64>(switch_at);
    tb.mean_latency = b.mean();
    tb.packets = b.count;
    out.series.push_back(tb);
  }
  return out;
}

BurstResult run_burst(const SimConfig& cfg, const TrafficPattern& pattern,
                      const BurstParams& params, const RunContext& ctx) {
  Network net(cfg);
  auto source = std::make_unique<BurstSource>(
      pattern, params.packets_per_node, cfg.seed);
  BurstSource* burst = source.get();
  net.set_traffic(std::move(source));
  arm(net, ctx);

  BurstResult out;
  while (net.now() < params.max_cycles) {
    net.step();
    if (burst->finished() && net.drained()) {
      out.completed = true;
      break;
    }
  }
  if (net.telemetry() != nullptr) net.telemetry()->write_summary(net);
  out.completion = net.now();
  out.delivered_packets = net.stats().delivered_packets();
  out.avg_latency = net.stats().latency().mean();
  out.ring_entries = net.stats().ring_entries();
  return out;
}

}  // namespace ofar
