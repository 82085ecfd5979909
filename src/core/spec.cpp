#include "core/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

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

void append_value(std::string& out, u32 v) { append_u64(out, v); }
void append_value(std::string& out, i32 v) {
  append_u64(out, static_cast<u64>(static_cast<i64>(v)));
}
void append_value(std::string& out, double v) { append_double(out, v); }
void append_value(std::string& out, bool v) { out += v ? '1' : '0'; }
void append_value(std::string& out, RoutingKind v) { out += to_string(v); }
void append_value(std::string& out, RingKind v) { out += to_string(v); }

/// Canonical rendering "name{tag=value;...}" of every field visit_fields
/// declares for `fields` (a SimConfig, or its nested thresholds group).
/// A field that changes results must be declared there, and joining the
/// list changes every key: bump kSpecSchemaVersion with it.
template <typename Fields>
void append_fields(std::string& out, const char* name, const Fields& fields) {
  out += name;
  out += '{';
  bool first = true;
  visit_fields(fields, [&out, &first](const char*, const char* tag,
                                      const auto& value) {
    if (!first) out += ';';
    first = false;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 MisrouteThresholds>) {
      append_fields(out, tag, value);
    } else {
      out += tag;
      out += '=';
      append_value(out, value);
    }
  });
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
  append_fields(out, "cfg", point.cfg);
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
  append_fields(out, "cfg", cfg);
  out += ";seed=";
  append_u64(out, cfg.seed);
  return out;
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
  for (std::size_t i = 0; i < mechanisms.size(); ++i) {
    const MechanismEntry& m = mechanisms[i];
    if (m.label.empty()) return "mechanism label must not be empty";
    // Labels name each mechanism's CSV columns, telemetry records and
    // per-point trace files, so a repeated one overwrites another's output.
    for (std::size_t j = 0; j < i; ++j)
      if (mechanisms[j].label == m.label)
        return "mechanism label '" + m.label +
               "' repeats (give each mechanism its own \"label\")";
    const std::string err = m.cfg.validate();
    if (!err.empty()) return "mechanism " + m.label + ": " + err;
  }
  return {};
}

// ---------------------------------------------------------------------------
// JSON loading
// ---------------------------------------------------------------------------

namespace {

/// One member a JSON object may hold: its key, how to read its value
/// (given the value's path), and whether the object must hold it.
struct Member {
  std::string key;
  std::function<bool(const JsonValue&, const std::string&)> read;
  bool required = false;
};
using Members = std::vector<Member>;

/// Reads one spec document into `spec`. Each read(v, path, out) stores the
/// JSON value `v` found at `path` ("mechanisms[1].thresholds", empty for
/// the document) into `out`, or fails with `error` naming the path.
class SpecReader {
 public:
  explicit SpecReader(ExperimentSpec& spec) : spec_(spec) {}

  std::string error;
  SimConfig base;  ///< the "config" member, under every mechanism's own

  template <typename Int>
    requires std::is_integral_v<Int>
  bool read(const JsonValue& v, const std::string& path, Int& out) {
    using Limits = std::numeric_limits<Int>;
    if (!v.is_number() || !v.has_exact_int() ||
        !std::in_range<Int>(v.as_int()))
      return fail(path, "must be an integer in [" +
                            std::to_string(Limits::min()) + ", " +
                            std::to_string(Limits::max()) + "]");
    out = static_cast<Int>(v.as_int());
    return true;
  }
  bool read(const JsonValue& v, const std::string& path, double& out) {
    if (!v.is_number()) return fail(path, "must be a number");
    out = v.as_double();
    return true;
  }
  bool read(const JsonValue& v, const std::string& path, bool& out) {
    if (!v.is_bool()) return fail(path, "must be true or false");
    out = v.as_bool();
    return true;
  }
  bool read(const JsonValue& v, const std::string& path, std::string& out) {
    if (!v.is_string()) return fail(path, "must be a string");
    out = v.as_string();
    return true;
  }
  bool read(const JsonValue& v, const std::string& path, RoutingKind& out) {
    return (v.is_string() && parse_routing_kind(v.as_string(), out)) ||
           fail(path, "must be MIN, VAL, PB, UGAL, PAR, OFAR or OFAR-L");
  }
  bool read(const JsonValue& v, const std::string& path, RingKind& out) {
    return (v.is_string() && parse_ring_kind(v.as_string(), out)) ||
           fail(path, "must be none, physical or embedded");
  }
  bool read(const JsonValue& v, const std::string& path, RunKind& out) {
    return (v.is_string() && parse_run_kind(v.as_string(), out)) ||
           fail(path, "must be steady, transient or burst");
  }
  bool read(const JsonValue& v, const std::string& path,
            MisrouteThresholds& out) {
    return object(v, path, "thresholds", fields(out));
  }
  bool read(const JsonValue& v, const std::string& path, NamedPattern& out);
  bool read(const JsonValue& v, const std::string& path,
            TrafficComponent& out);
  bool read(const JsonValue& v, const std::string& path, TransitionSpec& out);
  bool read(const JsonValue& v, const std::string& path,
            MechanismEntry& out);

  /// A non-empty array, each item read into a new element of `out`.
  template <typename T>
  bool read(const JsonValue& v, const std::string& path,
            std::vector<T>& out) {
    if (!v.is_array() || v.items().empty())
      return fail(path, "must be a non-empty array");
    out.clear();
    for (std::size_t i = 0; i < v.items().size(); ++i)
      if (!read(v.items()[i], path + "[" + std::to_string(i) + "]",
                out.emplace_back()))
        return false;
    return true;
  }

  template <typename T>
  Member member(std::string key, T& out, bool required = false) {
    return {std::move(key),
            [this, &out](const JsonValue& v, const std::string& path) {
              return read(v, path, out);
            },
            required};
  }

  /// A member for each field visit_fields declares with a JSON key.
  template <typename Fields>
  Members fields(Fields& declared) {
    Members out;
    visit_fields(declared, [this, &out](const char* key, const char*,
                                        auto& value) {
      if (key != nullptr) out.push_back(member(key, value));
    });
    return out;
  }

  /// Reads the object at `path` through its declared members, in
  /// declaration order. The declarations are also the check: a member no
  /// declaration names is an error naming it, so a typo never falls back
  /// to a default. `what` names the object kind in that error.
  bool object(const JsonValue& obj, const std::string& path,
              const std::string& what, const Members& members) {
    if (!obj.is_object()) return fail(path, "must be an object");
    for (const auto& [key, value] : obj.members()) {
      const auto declared = [&key](const Member& m) { return m.key == key; };
      if (std::none_of(members.begin(), members.end(), declared))
        return fail(path, "unknown " + what + " key '" + key + "'");
    }
    for (const Member& m : members) {
      const JsonValue* v = obj.find(m.key);
      if (v == nullptr && m.required)
        return fail(path, what + " needs \"" + m.key + "\"");
      if (v != nullptr &&
          !m.read(*v, path.empty() ? m.key : path + "." + m.key))
        return false;
    }
    return true;
  }

  bool loads(const JsonValue& v, const std::string& path);

 private:
  bool fail(const std::string& path, const std::string& message) {
    error = path.empty() ? message : path + ": " + message;
    return false;
  }

  ExperimentSpec& spec_;
};

/// Load grids of the figures sample a few dozen points.
constexpr u32 kMaxGridPoints = 10'000;

/// A pattern name ("UN", "uniform", "ADV+2", "adversarial:3", "ADV+h"
/// with the spec's h substituted, "stencil2d") or a mix object
/// {"mix": [{"kind": "uniform", "weight": 0.8}, ...], "name": ...}.
bool SpecReader::read(const JsonValue& v, const std::string& path,
                      NamedPattern& out) {
  if (v.is_object()) {
    std::vector<TrafficComponent> components;
    out.name = "MIX";
    if (!object(v, path, "pattern",
                {member("mix", components, true), member("name", out.name)}))
      return false;
    out.pattern = TrafficPattern::mix(std::move(components));
    return true;
  }
  if (!v.is_string())
    return fail(path, "must be a pattern name or a mix object");
  const std::string& text = v.as_string();
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
  if (offset_text.empty())
    return fail(path, "unknown pattern '" + text +
                          "' (expected UN, ADV+<n>, ADV+h, stencil2d, or a "
                          "mix object)");
  u32 offset = spec_.h;
  if (offset_text != "h") {
    char* end = nullptr;
    const unsigned long n = std::strtoul(offset_text.c_str(), &end, 10);
    if (end != offset_text.c_str() + offset_text.size() || n == 0)
      return fail(path, "bad adversarial offset in pattern '" + text + "'");
    offset = static_cast<u32>(n);
  }
  out.pattern = TrafficPattern::adversarial(offset);
  return true;
}

bool SpecReader::read(const JsonValue& v, const std::string& path,
                      TrafficComponent& out) {
  std::string kind;
  if (!object(v, path, "mix entry",
              {member("kind", kind, true), member("offset", out.offset),
               member("weight", out.weight)}))
    return false;
  if (!(out.weight > 0.0 && std::isfinite(out.weight)))
    return fail(path + ".weight", "must be a positive number");
  if (kind == "uniform") out.kind = PatternKind::kUniform;
  else if (kind == "adversarial") out.kind = PatternKind::kAdversarial;
  else if (kind == "stencil2d") out.kind = PatternKind::kStencil2D;
  else return fail(path + ".kind", "unknown mix component kind '" + kind + "'");
  return true;
}

bool SpecReader::read(const JsonValue& v, const std::string& path,
                      TransitionSpec& out) {
  const Member load{"load", [this, &out](const JsonValue& l,
                                         const std::string& at) {
                      return read(l, at, out.load_a) && read(l, at, out.load_b);
                    }};
  if (!object(v, path, "transition",
              {member("a", out.a, true), member("b", out.b, true), load,
               member("load_a", out.load_a), member("load_b", out.load_b),
               member("name", out.name)}))
    return false;
  if (v.find("name") == nullptr) out.name = out.a.name + "->" + out.b.name;
  return true;
}

/// A mechanism entry: a label, a routing kind, and config overrides on top
/// of `base`. The routing kind picks the paper's default ring
/// (default_ring) before an explicit "ring" member overrides it.
bool SpecReader::read(const JsonValue& v, const std::string& path,
                      MechanismEntry& out) {
  SimConfig& cfg = out.cfg = base;
  cfg.h = spec_.h;
  Members members{
      member("label", out.label),
      {"routing",
       [this, &cfg](const JsonValue& r, const std::string& at) {
         if (!read(r, at, cfg.routing)) return false;
         cfg.ring = default_ring(cfg.routing);
         return true;
       },
       true}};
  for (Member& m : fields(cfg))
    if (m.key != "routing") members.push_back(std::move(m));
  if (!object(v, path, "config", members)) return false;
  if (v.find("label") == nullptr) out.label = to_string(cfg.routing);
  return true;
}

/// An array of loads or a {min, max, points} grid.
bool SpecReader::loads(const JsonValue& v, const std::string& path) {
  if (!v.is_object()) return read(v, path, spec_.loads);
  double lo = 0, hi = 0;
  u32 points = 0;
  if (!object(v, path, "load grid",
              {member("min", lo, true), member("max", hi, true),
               member("points", points, true)}))
    return false;
  // One number must not size an allocation of gigabytes.
  if (points > kMaxGridPoints)
    return fail(path + ".points",
                "must be at most " + std::to_string(kMaxGridPoints));
  spec_.loads = expand_load_grid(lo, hi, points);
  return true;
}

}  // namespace

bool spec_from_json(const JsonValue& doc, ExperimentSpec& out,
                    std::string& error) {
  if (!doc.is_object()) {
    error = "spec document must be a JSON object";
    return false;
  }
  ExperimentSpec spec;
  SpecReader r(spec);
  // The kind decides which members the document may hold, so it is read
  // first; the declared "kind" member then reads it again, to no effect.
  const JsonValue* kind = doc.find("kind");
  if (kind != nullptr && !r.read(*kind, "kind", spec.kind)) {
    error = r.error;
    return false;
  }
  // Declaration order is read order: "h" before the patterns that name
  // ADV+h, "config" before the mechanisms built on it, and the plural
  // "seeds" and "patterns" after (so over) their singular forms.
  Members members{
      r.member("kind", spec.kind), r.member("name", spec.name),
      r.member("title", spec.title), r.member("h", spec.h),
      {"seed",
       [&](const JsonValue& v, const std::string& at) {
         spec.seeds.resize(1);
         return r.read(v, at, spec.seeds[0]);
       }},
      r.member("seeds", spec.seeds),
      {"config",
       [&](const JsonValue& v, const std::string& at) {
         return r.object(v, at, "config", r.fields(r.base));
       }},
      r.member("mechanisms", spec.mechanisms, true)};
  const Members per_kind[] = {  // indexed by RunKind
      {{"pattern",
        [&](const JsonValue& v, const std::string& at) {
          return r.read(v, at, spec.patterns.emplace_back());
        }},
       r.member("patterns", spec.patterns),
       {"loads",
        [&](const JsonValue& v, const std::string& at) {
          return r.loads(v, at);
        },
        true},
       r.member("warmup", spec.run.warmup),
       r.member("measure", spec.run.measure)},
      {r.member("transitions", spec.transitions, true),
       r.member("switch_at", spec.transient.warmup),
       r.member("horizon", spec.transient.horizon),
       r.member("lead", spec.transient.lead),
       r.member("drain", spec.transient.drain),
       r.member("bucket", spec.transient.bucket)},
      {r.member("workloads", spec.workloads, true),
       r.member("packets", spec.burst.packets_per_node),
       r.member("max_cycles", spec.burst.max_cycles)}};
  const Members& own = per_kind[static_cast<std::size_t>(spec.kind)];
  members.insert(members.end(), own.begin(), own.end());
  if (!r.object(doc, "", std::string(to_string(spec.kind)) + " spec",
                members)) {
    error = r.error;
    return false;
  }

  error = spec.validate();
  if (!error.empty()) return false;
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
