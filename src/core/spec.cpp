#include "core/spec.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/json.hpp"

namespace ofar {

const char* to_string(RunKind kind) noexcept {
  switch (kind) {
    case RunKind::kSteady: return "steady";
    case RunKind::kTransient: return "transient";
    case RunKind::kBurst: return "burst";
  }
  return "?";
}

bool parse_run_kind(const std::string& text, RunKind& out) noexcept {
  if (text == "steady") out = RunKind::kSteady;
  else if (text == "transient") out = RunKind::kTransient;
  else if (text == "burst") out = RunKind::kBurst;
  else return false;
  return true;
}

std::vector<double> expand_load_grid(double lo, double hi, u32 points) {
  std::vector<double> loads;
  loads.reserve(points);
  for (u32 i = 0; i < points; ++i)
    loads.push_back(lo + (hi - lo) * i / (points > 1 ? points - 1 : 1));
  return loads;
}

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

namespace {

void append_u64(std::string& out, u64 v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Canonical rendering of a pattern: its component list, exactly the data
/// TrafficPattern::pick consults. One letter per kind keeps keys short.
void append_pattern(std::string& out, const TrafficPattern& p) {
  out += '[';
  bool first = true;
  for (const auto& c : p.components()) {
    if (!first) out += ',';
    first = false;
    switch (c.kind) {
      case PatternKind::kUniform: out += 'u'; break;
      case PatternKind::kAdversarial: out += 'a'; break;
      case PatternKind::kStencil2D: out += 's'; break;
    }
    out += ':';
    append_u64(out, c.offset);
    out += ':';
    append_double(out, c.weight);
  }
  out += ']';
}

/// Canonical rendering of every semantically relevant SimConfig field.
/// MUST be extended (and kSpecSchemaVersion bumped) whenever SimConfig
/// grows a field that changes simulation results.
void append_config(std::string& out, const SimConfig& cfg) {
  out += "cfg{h=";
  append_u64(out, cfg.h);
  out += ";groups=";
  append_u64(out, cfg.groups);
  out += ";ps=";
  append_u64(out, cfg.packet_size);
  out += ";ll=";
  append_u64(out, cfg.local_latency);
  out += ";gl=";
  append_u64(out, cfg.global_latency);
  out += ";fl=";
  append_u64(out, cfg.fifo_local);
  out += ";fg=";
  append_u64(out, cfg.fifo_global);
  out += ";fi=";
  append_u64(out, cfg.fifo_injection);
  out += ";vl=";
  append_u64(out, cfg.vcs_local);
  out += ";vg=";
  append_u64(out, cfg.vcs_global);
  out += ";vi=";
  append_u64(out, cfg.vcs_injection);
  out += ";ai=";
  append_u64(out, cfg.allocator_iterations);
  out += ";routing=";
  out += to_string(cfg.routing);
  out += ";ring=";
  out += to_string(cfg.ring);
  out += ";thr{var=";
  out += cfg.thresholds.variable ? '1' : '0';
  out += ";min=";
  append_double(out, cfg.thresholds.th_min);
  out += ";nmf=";
  append_double(out, cfg.thresholds.nonmin_factor);
  out += ";nms=";
  append_double(out, cfg.thresholds.th_nonmin_static);
  out += ";gap=";
  append_double(out, cfg.thresholds.min_gap);
  out += "};mre=";
  append_u64(out, cfg.max_ring_exits);
  out += ";rs=";
  append_u64(out, cfg.ring_stride);
  out += ";pbs=";
  append_double(out, cfg.pb_saturation_threshold);
  out += ";pbd=";
  append_u64(out, cfg.pb_broadcast_delay);
  out += ";ub=";
  append_u64(out, static_cast<u64>(static_cast<i64>(cfg.ugal_bias_phits)));
  out += ";ct=";
  out += cfg.congestion_throttle ? '1' : '0';
  out += ";on=";
  append_double(out, cfg.throttle_on);
  out += ";off=";
  append_double(out, cfg.throttle_off);
  out += ";dt=";
  append_u64(out, cfg.deadlock_timeout);
  out += ";shards=";
  append_u64(out, cfg.sim_shards);
  out += ";sgm=";
  out += cfg.shard_group_major ? '1' : '0';
  out += '}';
}

u64 fnv1a64(const std::string& s, u64 basis) {
  u64 h = basis;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string canonical_point(const RunPoint& point) {
  std::string out;
  out.reserve(512);
  out += 'v';
  append_u64(out, kSpecSchemaVersion);
  out += ";kind=";
  out += to_string(point.kind);
  out += ";seed=";
  append_u64(out, point.seed);
  out += ';';
  append_config(out, point.cfg);
  out += ";pat=";
  append_pattern(out, point.pattern);
  switch (point.kind) {
    case RunKind::kSteady:
      out += ";load=";
      append_double(out, point.load);
      out += ";warmup=";
      append_u64(out, point.run.warmup);
      out += ";measure=";
      append_u64(out, point.run.measure);
      break;
    case RunKind::kTransient:
      out += ";load=";
      append_double(out, point.load);
      out += ";patb=";
      append_pattern(out, point.pattern_b);
      out += ";loadb=";
      append_double(out, point.load_b);
      out += ";switch=";
      append_u64(out, point.transient.warmup);
      out += ";horizon=";
      append_u64(out, point.transient.horizon);
      out += ";lead=";
      append_u64(out, point.transient.lead);
      out += ";drain=";
      append_u64(out, point.transient.drain);
      out += ";bucket=";
      append_u64(out, point.transient.bucket);
      break;
    case RunKind::kBurst:
      out += ";packets=";
      append_u64(out, point.burst.packets_per_node);
      out += ";maxcycles=";
      append_u64(out, point.burst.max_cycles);
      break;
  }
  return out;
}

std::string content_digest(const std::string& text) {
  const u64 a = fnv1a64(text, 14695981039346656037ULL);
  const u64 b = fnv1a64(text, 14695981039346656037ULL ^
                                  0x9e3779b97f4a7c15ULL);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

std::string point_key(const RunPoint& point) {
  return content_digest(canonical_point(point));
}

std::string config_signature(const SimConfig& cfg) {
  std::string out = "ckpt-v";
  append_u64(out, kSpecSchemaVersion);
  out += ';';
  append_config(out, cfg);
  out += ";seed=";
  append_u64(out, cfg.seed);
  return out;
}

std::vector<std::string> ExperimentSpec::case_names() const {
  std::vector<std::string> names;
  switch (kind) {
    case RunKind::kSteady:
      for (const auto& p : patterns) names.push_back(p.name);
      break;
    case RunKind::kTransient:
      for (const auto& t : transitions) names.push_back(t.name);
      break;
    case RunKind::kBurst:
      for (const auto& w : workloads) names.push_back(w.name);
      break;
  }
  return names;
}

std::vector<RunPoint> ExperimentSpec::expand() const {
  std::vector<RunPoint> points;
  const std::size_t cases = kind == RunKind::kSteady ? patterns.size()
                            : kind == RunKind::kTransient ? transitions.size()
                                                          : workloads.size();
  const std::size_t nloads = kind == RunKind::kSteady ? loads.size() : 1;
  points.reserve(seeds.size() * cases * nloads * mechanisms.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t c = 0; c < cases; ++c) {
      for (std::size_t l = 0; l < nloads; ++l) {
        for (std::size_t m = 0; m < mechanisms.size(); ++m) {
          RunPoint p;
          p.kind = kind;
          p.mechanism = mechanisms[m].label;
          p.seed = seeds[s];
          p.cfg = mechanisms[m].cfg;
          p.cfg.seed = seeds[s];
          p.mech_index = static_cast<u32>(m);
          p.case_index = static_cast<u32>(c);
          p.load_index = static_cast<u32>(l);
          p.seed_index = static_cast<u32>(s);
          switch (kind) {
            case RunKind::kSteady:
              p.case_name = patterns[c].name;
              p.pattern = patterns[c].pattern;
              p.load = loads[l];
              p.run = run;
              break;
            case RunKind::kTransient:
              p.case_name = transitions[c].name;
              p.pattern = transitions[c].a.pattern;
              p.load = transitions[c].load_a;
              p.pattern_b = transitions[c].b.pattern;
              p.load_b = transitions[c].load_b;
              p.transient = transient;
              break;
            case RunKind::kBurst:
              p.case_name = workloads[c].name;
              p.pattern = workloads[c].pattern;
              p.burst = burst;
              break;
          }
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

std::string ExperimentSpec::validate() const {
  if (name.empty()) return "spec name must not be empty";
  if (mechanisms.empty()) return "spec needs at least one mechanism";
  if (seeds.empty()) return "spec needs at least one seed";
  switch (kind) {
    case RunKind::kSteady:
      if (patterns.empty()) return "steady spec needs at least one pattern";
      if (loads.empty()) return "steady spec needs at least one load";
      break;
    case RunKind::kTransient:
      if (transitions.empty())
        return "transient spec needs at least one transition";
      break;
    case RunKind::kBurst:
      if (workloads.empty()) return "burst spec needs at least one workload";
      if (burst.packets_per_node == 0)
        return "burst spec needs packets_per_node >= 1";
      break;
  }
  for (const auto& m : mechanisms) {
    if (m.label.empty()) return "mechanism label must not be empty";
    const std::string err = m.cfg.validate();
    if (!err.empty()) return "mechanism " + m.label + ": " + err;
  }
  return {};
}

// ---------------------------------------------------------------------------
// JSON loading
// ---------------------------------------------------------------------------

namespace {

bool get_u32(const JsonValue& v, const std::string& what, u32& out,
             std::string& error) {
  if (!v.is_number() || !v.has_exact_int() || v.as_int() < 0 ||
      v.as_int() > static_cast<i64>(~u32{0})) {
    error = what + " must be a non-negative integer";
    return false;
  }
  out = static_cast<u32>(v.as_int());
  return true;
}

bool get_u64(const JsonValue& v, const std::string& what, u64& out,
             std::string& error) {
  if (!v.is_number() || !v.has_exact_int() || v.as_int() < 0) {
    error = what + " must be a non-negative integer";
    return false;
  }
  out = static_cast<u64>(v.as_int());
  return true;
}

bool get_double(const JsonValue& v, const std::string& what, double& out,
                std::string& error) {
  if (!v.is_number()) {
    error = what + " must be a number";
    return false;
  }
  out = v.as_double();
  return true;
}

bool get_bool(const JsonValue& v, const std::string& what, bool& out,
              std::string& error) {
  if (!v.is_bool()) {
    error = what + " must be true or false";
    return false;
  }
  out = v.as_bool();
  return true;
}

bool parse_pattern_name(const std::string& text, u32 h, NamedPattern& out,
                        std::string& error) {
  out.name = text;
  if (text == "UN" || text == "uniform") {
    out.name = "UN";
    out.pattern = TrafficPattern::uniform();
    return true;
  }
  if (text == "stencil2d" || text == "ST") {
    out.name = "ST";
    out.pattern = TrafficPattern::stencil2d();
    return true;
  }
  std::string offset_text;
  if (text.rfind("ADV+", 0) == 0) offset_text = text.substr(4);
  else if (text.rfind("adversarial:", 0) == 0) offset_text = text.substr(12);
  if (!offset_text.empty()) {
    u32 offset = 0;
    if (offset_text == "h") {
      offset = h;
    } else {
      char* end = nullptr;
      const unsigned long v = std::strtoul(offset_text.c_str(), &end, 10);
      if (end != offset_text.c_str() + offset_text.size() || v == 0) {
        error = "bad adversarial offset in pattern '" + text + "'";
        return false;
      }
      offset = static_cast<u32>(v);
    }
    out.pattern = TrafficPattern::adversarial(offset);
    return true;
  }
  error = "unknown pattern '" + text +
          "' (expected UN, ADV+<n>, ADV+h, stencil2d, or a mix object)";
  return false;
}

bool parse_thresholds_json(const JsonValue& obj, MisrouteThresholds& thr,
                           std::string& error) {
  if (!obj.is_object()) {
    error = "thresholds must be an object";
    return false;
  }
  for (const auto& [key, value] : obj.members()) {
    bool ok = true;
    if (key == "variable") ok = get_bool(value, key, thr.variable, error);
    else if (key == "th_min") ok = get_double(value, key, thr.th_min, error);
    else if (key == "nonmin_factor")
      ok = get_double(value, key, thr.nonmin_factor, error);
    else if (key == "th_nonmin_static")
      ok = get_double(value, key, thr.th_nonmin_static, error);
    else if (key == "min_gap") ok = get_double(value, key, thr.min_gap, error);
    else {
      error = "unknown thresholds key '" + key + "'";
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool pattern_from_json(const JsonValue& v, u32 h, NamedPattern& out,
                       std::string& error) {
  if (v.is_string()) return parse_pattern_name(v.as_string(), h, out, error);
  if (!v.is_object()) {
    error = "pattern must be a name string or a mix object";
    return false;
  }
  const JsonValue* mix = v.find("mix");
  if (mix == nullptr || !mix->is_array() || mix->items().empty()) {
    error = "pattern object needs a non-empty \"mix\" array";
    return false;
  }
  std::vector<TrafficComponent> components;
  for (const auto& item : mix->items()) {
    if (!item.is_object()) {
      error = "mix entries must be objects";
      return false;
    }
    TrafficComponent c;
    const JsonValue* kind = item.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      error = "mix entry needs a \"kind\" string";
      return false;
    }
    const std::string& k = kind->as_string();
    if (k == "uniform") c.kind = PatternKind::kUniform;
    else if (k == "adversarial") c.kind = PatternKind::kAdversarial;
    else if (k == "stencil2d") c.kind = PatternKind::kStencil2D;
    else {
      error = "unknown mix component kind '" + k + "'";
      return false;
    }
    if (const JsonValue* offset = item.find("offset")) {
      if (!get_u32(*offset, "mix offset", c.offset, error)) return false;
    }
    if (const JsonValue* weight = item.find("weight")) {
      if (!get_double(*weight, "mix weight", c.weight, error)) return false;
    }
    components.push_back(c);
  }
  out.pattern = TrafficPattern::mix(std::move(components));
  out.name = "MIX";
  if (const JsonValue* name = v.find("name")) {
    if (!name->is_string()) {
      error = "pattern name must be a string";
      return false;
    }
    out.name = name->as_string();
  }
  (void)h;
  return true;
}

bool apply_config_json(const JsonValue& obj, SimConfig& cfg,
                       const std::vector<std::string>& skip,
                       std::string& error) {
  if (!obj.is_object()) {
    error = "config overrides must be an object";
    return false;
  }
  for (const auto& [key, value] : obj.members()) {
    bool skipped = false;
    for (const auto& s : skip)
      if (key == s) {
        skipped = true;
        break;
      }
    if (skipped) continue;
    bool ok = true;
    if (key == "routing") {
      if (!value.is_string() ||
          !parse_routing_kind(value.as_string(), cfg.routing)) {
        error = "bad routing kind";
        ok = false;
      }
    } else if (key == "ring") {
      if (!value.is_string() || !parse_ring_kind(value.as_string(), cfg.ring)) {
        error = "bad ring kind (none|physical|embedded)";
        ok = false;
      }
    } else if (key == "groups") ok = get_u32(value, key, cfg.groups, error);
    else if (key == "packet_size")
      ok = get_u32(value, key, cfg.packet_size, error);
    else if (key == "local_latency")
      ok = get_u32(value, key, cfg.local_latency, error);
    else if (key == "global_latency")
      ok = get_u32(value, key, cfg.global_latency, error);
    else if (key == "fifo_local") ok = get_u32(value, key, cfg.fifo_local, error);
    else if (key == "fifo_global")
      ok = get_u32(value, key, cfg.fifo_global, error);
    else if (key == "fifo_injection")
      ok = get_u32(value, key, cfg.fifo_injection, error);
    else if (key == "vcs_local") ok = get_u32(value, key, cfg.vcs_local, error);
    else if (key == "vcs_global")
      ok = get_u32(value, key, cfg.vcs_global, error);
    else if (key == "vcs_injection")
      ok = get_u32(value, key, cfg.vcs_injection, error);
    else if (key == "allocator_iterations")
      ok = get_u32(value, key, cfg.allocator_iterations, error);
    else if (key == "max_ring_exits")
      ok = get_u32(value, key, cfg.max_ring_exits, error);
    else if (key == "ring_stride")
      ok = get_u32(value, key, cfg.ring_stride, error);
    else if (key == "pb_saturation_threshold")
      ok = get_double(value, key, cfg.pb_saturation_threshold, error);
    else if (key == "pb_broadcast_delay")
      ok = get_u32(value, key, cfg.pb_broadcast_delay, error);
    else if (key == "ugal_bias_phits") {
      if (!value.is_number() || !value.has_exact_int()) {
        error = "ugal_bias_phits must be an integer";
        ok = false;
      } else {
        cfg.ugal_bias_phits = static_cast<i32>(value.as_int());
      }
    } else if (key == "congestion_throttle")
      ok = get_bool(value, key, cfg.congestion_throttle, error);
    else if (key == "throttle_on")
      ok = get_double(value, key, cfg.throttle_on, error);
    else if (key == "throttle_off")
      ok = get_double(value, key, cfg.throttle_off, error);
    else if (key == "deadlock_timeout")
      ok = get_u32(value, key, cfg.deadlock_timeout, error);
    else if (key == "sim_shards")
      ok = get_u32(value, key, cfg.sim_shards, error);
    else if (key == "shard_group_major")
      ok = get_bool(value, key, cfg.shard_group_major, error);
    else if (key == "thresholds")
      ok = parse_thresholds_json(value, cfg.thresholds, error);
    else {
      error = "unknown config key '" + key + "'";
      ok = false;
    }
    if (!ok) {
      error = "config." + key + ": " + error;
      return false;
    }
  }
  return true;
}

bool spec_from_json(const JsonValue& doc, ExperimentSpec& out,
                    std::string& error) {
  if (!doc.is_object()) {
    error = "spec document must be a JSON object";
    return false;
  }
  ExperimentSpec spec;
  // Steady specs default to the windows every figure bench has used.
  spec.run = RunParams::windows(5'000, 6'000);
  // Fig. 6 conventions for transient specs.
  spec.transient.warmup = 20'000;
  spec.transient.horizon = 12'000;
  spec.transient.lead = 2'000;
  spec.transient.drain = 20'000;
  spec.transient.bucket = 500;
  // Fig. 7 conventions for burst specs.
  spec.burst.packets_per_node = 400;
  spec.burst.max_cycles = 20'000'000;

  if (const JsonValue* v = doc.find("kind")) {
    if (!v->is_string() || !parse_run_kind(v->as_string(), spec.kind)) {
      error = "kind must be \"steady\", \"transient\" or \"burst\"";
      return false;
    }
  }
  if (const JsonValue* v = doc.find("name")) {
    if (!v->is_string()) {
      error = "name must be a string";
      return false;
    }
    spec.name = v->as_string();
  }
  if (const JsonValue* v = doc.find("title")) {
    if (!v->is_string()) {
      error = "title must be a string";
      return false;
    }
    spec.title = v->as_string();
  }
  if (const JsonValue* v = doc.find("h")) {
    if (!get_u32(*v, "h", spec.h, error)) return false;
  }
  if (const JsonValue* v = doc.find("seeds")) {
    if (!v->is_array() || v->items().empty()) {
      error = "seeds must be a non-empty array of integers";
      return false;
    }
    spec.seeds.clear();
    for (const auto& s : v->items()) {
      u64 seed = 0;
      if (!get_u64(s, "seeds entry", seed, error)) return false;
      spec.seeds.push_back(seed);
    }
  } else if (const JsonValue* v2 = doc.find("seed")) {
    u64 seed = 0;
    if (!get_u64(*v2, "seed", seed, error)) return false;
    spec.seeds = {seed};
  }

  SimConfig base;
  base.h = spec.h;
  if (const JsonValue* v = doc.find("config")) {
    if (!apply_config_json(*v, base, {}, error)) return false;
  }

  const JsonValue* mechs = doc.find("mechanisms");
  if (mechs == nullptr || !mechs->is_array() || mechs->items().empty()) {
    error = "spec needs a non-empty \"mechanisms\" array";
    return false;
  }
  for (const auto& m : mechs->items()) {
    if (!m.is_object()) {
      error = "mechanisms entries must be objects";
      return false;
    }
    MechanismEntry entry;
    entry.cfg = base;
    const JsonValue* routing = m.find("routing");
    if (routing == nullptr || !routing->is_string() ||
        !parse_routing_kind(routing->as_string(), entry.cfg.routing)) {
      error = "each mechanism needs a valid \"routing\" string";
      return false;
    }
    // The paper's default evaluation setup: VC-ordered mechanisms get no
    // escape ring, OFAR variants get the physical ring. An explicit "ring"
    // member below overrides this.
    entry.cfg.ring =
        entry.cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
    if (!apply_config_json(m, entry.cfg, {"label", "routing"}, error))
      return false;
    entry.label = to_string(entry.cfg.routing);
    if (const JsonValue* label = m.find("label")) {
      if (!label->is_string()) {
        error = "mechanism label must be a string";
        return false;
      }
      entry.label = label->as_string();
    }
    spec.mechanisms.push_back(std::move(entry));
  }

  switch (spec.kind) {
    case RunKind::kSteady: {
      const JsonValue* pats = doc.find("patterns");
      if (pats != nullptr) {
        if (!pats->is_array() || pats->items().empty()) {
          error = "patterns must be a non-empty array";
          return false;
        }
        for (const auto& p : pats->items()) {
          NamedPattern np;
          if (!pattern_from_json(p, spec.h, np, error)) return false;
          spec.patterns.push_back(std::move(np));
        }
      } else if (const JsonValue* pat = doc.find("pattern")) {
        NamedPattern np;
        if (!pattern_from_json(*pat, spec.h, np, error)) return false;
        spec.patterns.push_back(std::move(np));
      } else {
        error = "steady spec needs \"pattern\" or \"patterns\"";
        return false;
      }
      const JsonValue* loads = doc.find("loads");
      if (loads == nullptr) {
        error = "steady spec needs \"loads\" (array or {min,max,points})";
        return false;
      }
      if (loads->is_array()) {
        for (const auto& l : loads->items()) {
          double v = 0;
          if (!get_double(l, "loads entry", v, error)) return false;
          spec.loads.push_back(v);
        }
      } else if (loads->is_object()) {
        double lo = 0, hi = 0;
        u32 points = 0;
        const JsonValue* pmin = loads->find("min");
        const JsonValue* pmax = loads->find("max");
        const JsonValue* ppoints = loads->find("points");
        if (pmin == nullptr || pmax == nullptr || ppoints == nullptr ||
            !get_double(*pmin, "loads.min", lo, error) ||
            !get_double(*pmax, "loads.max", hi, error) ||
            !get_u32(*ppoints, "loads.points", points, error)) {
          if (error.empty()) error = "loads object needs min, max and points";
          return false;
        }
        spec.loads = expand_load_grid(lo, hi, points);
      } else {
        error = "loads must be an array or a {min,max,points} object";
        return false;
      }
      if (const JsonValue* v = doc.find("warmup")) {
        u64 w = 0;
        if (!get_u64(*v, "warmup", w, error)) return false;
        spec.run.warmup = w;
      }
      if (const JsonValue* v = doc.find("measure")) {
        u64 w = 0;
        if (!get_u64(*v, "measure", w, error)) return false;
        spec.run.measure = w;
      }
      break;
    }
    case RunKind::kTransient: {
      const JsonValue* trans = doc.find("transitions");
      if (trans == nullptr || !trans->is_array() || trans->items().empty()) {
        error = "transient spec needs a non-empty \"transitions\" array";
        return false;
      }
      for (const auto& t : trans->items()) {
        if (!t.is_object()) {
          error = "transitions entries must be objects";
          return false;
        }
        TransitionSpec tr;
        const JsonValue* a = t.find("a");
        const JsonValue* b = t.find("b");
        if (a == nullptr || b == nullptr ||
            !pattern_from_json(*a, spec.h, tr.a, error) ||
            !pattern_from_json(*b, spec.h, tr.b, error)) {
          if (error.empty()) error = "each transition needs \"a\" and \"b\"";
          return false;
        }
        if (const JsonValue* load = t.find("load")) {
          if (!get_double(*load, "transition load", tr.load_a, error))
            return false;
          tr.load_b = tr.load_a;
        }
        if (const JsonValue* load = t.find("load_a")) {
          if (!get_double(*load, "load_a", tr.load_a, error)) return false;
        }
        if (const JsonValue* load = t.find("load_b")) {
          if (!get_double(*load, "load_b", tr.load_b, error)) return false;
        }
        tr.name = tr.a.name + "->" + tr.b.name;
        if (const JsonValue* name = t.find("name")) {
          if (!name->is_string()) {
            error = "transition name must be a string";
            return false;
          }
          tr.name = name->as_string();
        }
        spec.transitions.push_back(std::move(tr));
      }
      struct Knob {
        const char* key;
        Cycle* target;
      };
      const Knob knobs[] = {{"switch_at", &spec.transient.warmup},
                            {"horizon", &spec.transient.horizon},
                            {"lead", &spec.transient.lead},
                            {"drain", &spec.transient.drain}};
      for (const auto& k : knobs) {
        if (const JsonValue* v = doc.find(k.key)) {
          if (!get_u64(*v, k.key, *k.target, error)) return false;
        }
      }
      if (const JsonValue* v = doc.find("bucket")) {
        if (!get_u32(*v, "bucket", spec.transient.bucket, error)) return false;
      }
      break;
    }
    case RunKind::kBurst: {
      const JsonValue* wls = doc.find("workloads");
      if (wls == nullptr || !wls->is_array() || wls->items().empty()) {
        error = "burst spec needs a non-empty \"workloads\" array";
        return false;
      }
      for (const auto& w : wls->items()) {
        NamedPattern np;
        if (!pattern_from_json(w, spec.h, np, error)) return false;
        spec.workloads.push_back(std::move(np));
      }
      if (const JsonValue* v = doc.find("packets")) {
        if (!get_u32(*v, "packets", spec.burst.packets_per_node, error))
          return false;
      }
      if (const JsonValue* v = doc.find("max_cycles")) {
        if (!get_u64(*v, "max_cycles", spec.burst.max_cycles, error))
          return false;
      }
      break;
    }
  }

  const std::string err = spec.validate();
  if (!err.empty()) {
    error = err;
    return false;
  }
  out = std::move(spec);
  return true;
}

bool spec_from_file(const std::string& path, ExperimentSpec& out,
                    std::string& error) {
  JsonValue doc;
  if (!json_parse_file(path, doc, error)) return false;
  if (!spec_from_json(doc, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

}  // namespace ofar
