#include "core/orchestrator.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"

namespace ofar {

namespace {

/// Journal line schema version: bump together with any change to the
/// result structs' serialized shape (old lines then fail to parse and the
/// affected points simply re-run).
constexpr u32 kJournalVersion = 1;

// The one declaration of each result kind's journal fields, in payload
// order: f(key, member) per field. write_result_json and
// parse_result_json both walk these, so the two directions cannot drift;
// the order fixes the payload bytes that results_digest covers.

template <typename R, typename F>
void steady_fields(R& r, F&& f) {
  f("offered", r.offered_load);
  f("accepted", r.accepted_load);
  f("lat", r.avg_latency);
  f("lat_sd", r.stddev_latency);
  f("delivered", r.delivered_packets);
  f("lmis", r.local_misroutes);
  f("gmis", r.global_misroutes);
  f("ring", r.ring_entries);
  f("stalled", r.stalled_packets);
  f("worst", r.worst_stall);
  f("hops", r.mean_hops);
}

template <typename R, typename F>
void burst_fields(R& r, F&& f) {
  f("completion", r.completion);
  f("delivered", r.delivered_packets);
  f("lat", r.avg_latency);
  f("ring", r.ring_entries);
  f("completed", r.completed);
}

/// A transient result is a "series" of positional triples.
template <typename B, typename F>
void bucket_fields(B& b, F&& f) {
  f(nullptr, b.cycle_rel);
  f(nullptr, b.mean_latency);
  f(nullptr, b.packets);
}

void write_result_json(JsonWriter& w, const RunPoint& point,
                       const PointOutcome& o) {
  const auto put = [&w](const char* key, const auto& value) {
    if (key != nullptr) w.key(key);
    w.value(value);
  };
  w.key("result").begin_object();
  switch (point.kind) {
    case RunKind::kSteady: steady_fields(o.steady, put); break;
    case RunKind::kTransient:
      w.key("series").begin_array();
      for (const TransientBucket& b : o.transient.series) {
        w.begin_array();
        bucket_fields(b, put);
        w.end_array();
      }
      w.end_array();
      break;
    case RunKind::kBurst: burst_fields(o.burst, put); break;
  }
  w.end_object();
}

bool read_json(const JsonValue* v, u64& out) {
  if (v == nullptr || !v->is_number() || !v->has_exact_int() ||
      v->as_int() < 0)
    return false;
  out = static_cast<u64>(v->as_int());
  return true;
}

bool read_json(const JsonValue* v, i64& out) {
  if (v == nullptr || !v->is_number() || !v->has_exact_int()) return false;
  out = v->as_int();
  return true;
}

bool read_json(const JsonValue* v, double& out) {
  if (v == nullptr || !v->is_number()) return false;
  out = v->as_double();
  return true;
}

bool read_json(const JsonValue* v, bool& out) {
  if (v == nullptr || !v->is_bool()) return false;
  out = v->as_bool();
  return true;
}

bool parse_result_json(const JsonValue& result, RunKind kind,
                       PointOutcome& o, std::string& error) {
  bool ok = result.is_object();
  const auto get = [&result, &ok](const char* key, auto& value) {
    ok = ok && read_json(result.find(key), value);
  };
  switch (kind) {
    case RunKind::kSteady: steady_fields(o.steady, get); break;
    case RunKind::kTransient: {
      const JsonValue* series = ok ? result.find("series") : nullptr;
      ok = series != nullptr && series->is_array();
      o.transient.series.clear();
      for (std::size_t i = 0; ok && i < series->items().size(); ++i) {
        const JsonValue& item = series->items()[i];
        ok = item.is_array() && item.items().size() == 3;
        std::size_t at = 0;
        bucket_fields(o.transient.series.emplace_back(),
                      [&item, &ok, &at](const char*, auto& value) {
                        ok = ok && read_json(&item.items()[at++], value);
                      });
      }
      break;
    }
    case RunKind::kBurst: burst_fields(o.burst, get); break;
  }
  if (!ok) error = std::string("malformed ") + to_string(kind) + " result";
  return ok;
}

/// Serializes ONLY the result payload (no key/version wrapper) — the unit
/// the whole-run digest is computed over.
std::string result_payload(const RunPoint& point, const PointOutcome& o) {
  JsonWriter w;
  w.begin_object();
  w.key("kind").value(to_string(point.kind));
  write_result_json(w, point, o);
  w.end_object();
  return w.str();
}

}  // namespace

std::string journal_line(const RunPoint& point, const PointOutcome& outcome) {
  JsonWriter w;
  w.begin_object();
  w.key("v").value(kJournalVersion);
  w.key("key").value(outcome.key);
  w.key("kind").value(to_string(point.kind));
  write_result_json(w, point, outcome);
  w.end_object();
  return w.str();
}

bool parse_journal_line(const std::string& line, std::string& key,
                        RunKind& kind, PointOutcome& outcome,
                        std::string& error) {
  JsonValue doc;
  if (!json_parse(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "line is not an object";
    return false;
  }
  u64 version = 0;
  if (!read_json(doc.find("v"), version) || version != kJournalVersion) {
    error = "missing or unsupported journal version";
    return false;
  }
  const JsonValue* k = doc.find("key");
  if (k == nullptr || !k->is_string() || k->as_string().size() != 32) {
    error = "missing or malformed key";
    return false;
  }
  const JsonValue* kind_v = doc.find("kind");
  if (kind_v == nullptr || !kind_v->is_string() ||
      !parse_run_kind(kind_v->as_string(), kind)) {
    error = "missing or unknown kind";
    return false;
  }
  const JsonValue* result = doc.find("result");
  if (result == nullptr) {
    error = "missing result";
    return false;
  }
  if (!parse_result_json(*result, kind, outcome, error)) return false;
  key = k->as_string();
  outcome.key = key;
  outcome.done = true;
  outcome.from_cache = true;
  return true;
}

namespace {

struct CacheEntry {
  RunKind kind;
  PointOutcome outcome;
};

/// Loads every parseable journal line; corrupt lines (typically the
/// truncated tail of a crashed run, or hand-editing damage) are reported
/// and skipped — losing one cached point costs one re-simulation, while
/// aborting would cost the whole sweep.
std::map<std::string, CacheEntry> load_journal(const std::string& path) {
  std::map<std::string, CacheEntry> cache;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return cache;  // no journal yet: empty cache
  std::string text;
  char buf[4096];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    text.append(buf, n);
    if (n < sizeof buf) break;
  }
  std::fclose(f);

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    const bool truncated = end == std::string::npos;
    if (truncated) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    std::string key, error;
    RunKind kind = RunKind::kSteady;
    PointOutcome outcome;
    if (truncated) {
      std::fprintf(stderr,
                   "warning: %s:%zu: ignoring truncated final line "
                   "(in-flight point of an interrupted run)\n",
                   path.c_str(), line_no);
      continue;
    }
    if (!parse_journal_line(line, key, kind, outcome, error)) {
      std::fprintf(stderr, "warning: %s:%zu: skipping corrupt line (%s)\n",
                   path.c_str(), line_no, error.c_str());
      continue;
    }
    cache[key] = CacheEntry{kind, std::move(outcome)};
  }
  return cache;
}

}  // namespace

RunReport run_points(const std::vector<RunPoint>& points,
                     const OrchestratorOptions& opts) {
  RunReport report;
  report.outcomes.resize(points.size());

  std::map<std::string, CacheEntry> cache;
  std::FILE* journal = nullptr;
  if (!opts.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.checkpoint_dir, ec);
    if (ec)
      std::fprintf(stderr, "warning: cannot create checkpoint dir %s: %s\n",
                   opts.checkpoint_dir.c_str(), ec.message().c_str());
  }
  if (!opts.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.cache_dir, ec);
    if (ec) {
      std::fprintf(stderr, "warning: cannot create cache dir %s: %s\n",
                   opts.cache_dir.c_str(), ec.message().c_str());
    }
    report.journal_path = opts.cache_dir + "/journal.jsonl";
    cache = load_journal(report.journal_path);
    journal = std::fopen(report.journal_path.c_str(), "ab");
    if (journal == nullptr)
      std::fprintf(stderr,
                   "warning: cannot append to %s; results of this run will "
                   "not be cached\n",
                   report.journal_path.c_str());
  }

  // Resolve cache hits and collect the points that must execute.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointOutcome& o = report.outcomes[i];
    o.key = point_key(points[i]);
    const auto it = cache.find(o.key);
    if (it != cache.end() && it->second.kind == points[i].kind) {
      o = it->second.outcome;
      ++report.hits;
    } else {
      todo.push_back(i);
    }
  }

  // Thread-budget arbitration (DESIGN.md §10): split the total budget
  // between point-level workers (outer) and per-simulation shard workers
  // (inner), never oversubscribing their product. Auto mode prefers the
  // outer level — an embarrassingly parallel sweep scales better there —
  // and only routes spare threads inward when fewer points remain than
  // the budget could occupy.
  unsigned budget =
      opts.threads != 0 ? opts.threads : std::thread::hardware_concurrency();
  if (budget == 0) budget = 1;
  unsigned outer = 1;
  unsigned inner = 1;
  if (opts.sim_threads == 0) {
    outer = static_cast<unsigned>(std::min<std::size_t>(
        budget, std::max<std::size_t>(1, todo.size())));
    inner = std::max(1u, budget / outer);
  } else {
    inner = std::min(opts.sim_threads, budget);
    outer = std::max(1u, budget / inner);
  }
  OFAR_CHECK_MSG(static_cast<u64>(outer) * inner <= budget,
                 "thread split oversubscribes the --threads budget");

  std::mutex journal_mutex;
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> interrupted{false};

  std::vector<std::function<void()>> jobs;
  jobs.reserve(todo.size());
  for (const std::size_t i : todo) {
    jobs.emplace_back([&, i] {
      if (opts.stop_flag != nullptr &&
          opts.stop_flag->load(std::memory_order_relaxed)) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t my_start =
          started.fetch_add(1, std::memory_order_relaxed);
      if (opts.stop_after != 0 && my_start >= opts.stop_after) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const RunPoint& p = points[i];
      PointOutcome& o = report.outcomes[i];

      // Labels name the case and mechanism so a shared sink's records stay
      // distinguishable across the whole sweep.
      RunContext ctx;
      ctx.instrumentation = opts.instrumentation;
      ctx.label =
          p.case_name.empty() ? p.mechanism : p.case_name + "|" + p.mechanism;
      ctx.trace_per_point = todo.size() > 1;
      ctx.sim_threads = inner;
      if (!opts.checkpoint_dir.empty())
        ctx.checkpoint_path = opts.checkpoint_dir + "/" + o.key + ".ckpt";
      ctx.checkpoint_interval = opts.checkpoint_interval;
      switch (p.kind) {
        case RunKind::kSteady:
          o.steady = run_steady(p.cfg, p.pattern, p.load, p.run, ctx);
          break;
        case RunKind::kTransient:
          o.transient = run_transient(p.cfg, p.pattern, p.load, p.pattern_b,
                                      p.load_b, p.transient, ctx);
          break;
        case RunKind::kBurst:
          o.burst = run_burst(p.cfg, p.pattern, p.burst, ctx);
          break;
      }
      o.done = true;
      o.from_cache = false;
      executed.fetch_add(1, std::memory_order_relaxed);

      if (journal != nullptr) {
        const std::string line = journal_line(p, o) + "\n";
        std::lock_guard<std::mutex> lock(journal_mutex);
        std::fwrite(line.data(), 1, line.size(), journal);
        std::fflush(journal);  // crash loses only in-flight points
      }
    });
  }
  run_parallel(jobs, outer);
  if (journal != nullptr) std::fclose(journal);

  report.executed = executed.load();
  report.interrupted = interrupted.load();
  for (const auto& o : report.outcomes)
    if (!o.done) ++report.missing;
  return report;
}

std::string results_digest(const std::vector<RunPoint>& points,
                           const RunReport& report) {
  std::vector<std::string> lines;
  lines.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointOutcome& o = report.outcomes[i];
    if (!o.done) continue;
    lines.push_back(o.key + "=" + result_payload(points[i], o));
  }
  std::sort(lines.begin(), lines.end());
  std::string all;
  for (const auto& line : lines) {
    all += line;
    all += '\n';
  }
  return content_digest(all);
}

}  // namespace ofar
