// Minimal JSON: a document model with a recursive-descent parser, and an
// append-only writer.
//
// The parser reads the experiment-orchestration layer's two inputs that
// must be robust against hand-edited or half-written files: experiment
// spec files (core/spec.hpp) and the result-cache journal
// (core/orchestrator.hpp). Design goals, in order: precise error messages
// (line:column), exact round-trip of numbers (doubles parse via strtod,
// integers are kept as i64 while they fit), and zero dependencies. Not a
// goal: speed on multi-MB documents — specs and journal lines are tiny.
//
// Object member order is preserved (vector of pairs, not a map): iteration
// is deterministic and mirrors the input, which the determinism lint
// demands of anything the simulator reads.
//
// The writer (JsonWriter) serialises journal lines, telemetry records and
// the packet tracer's Perfetto events; every double it writes, like every
// double of a canonical key, goes through append_double.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ofar {

class JsonValue {
 public:
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const noexcept { return bool_; }
  double as_double() const noexcept { return number_; }
  /// Numbers written without fraction/exponent also retain an exact i64
  /// (when representable); as_int truncates otherwise.
  i64 as_int() const noexcept { return int_valid_ ? int_ : static_cast<i64>(number_); }
  bool has_exact_int() const noexcept { return int_valid_; }
  const std::string& as_string() const noexcept { return string_; }
  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const noexcept;

  // ---- construction (parser + tests) ----
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_int(i64 v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  i64 int_ = 0;
  bool int_valid_ = false;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Deepest nesting of arrays and objects json_parse accepts. The parser
/// recurses once per level, so the bound keeps hostile input (a journal
/// line of a million '[') off the end of the stack; specs and journal
/// lines nest a handful of levels.
inline constexpr u32 kJsonMaxDepth = 64;

/// Parses one complete JSON document. Returns false and fills `error`
/// ("line L, column C: message") on malformed input, nesting deeper than
/// kJsonMaxDepth included; trailing non-space content after the document
/// is an error.
bool json_parse(const std::string& text, JsonValue& out, std::string& error);

/// Reads and parses a whole file. `error` distinguishes I/O failures
/// ("cannot read <path>") from parse failures ("<path>: line L, ...").
bool json_parse_file(const std::string& path, JsonValue& out,
                     std::string& error);

/// Renders a double in shortest round-trip form (std::to_chars): the one
/// double format of canonical keys, the result journal, telemetry records
/// and trace args. The shortest form ("0.25", "1e+22") is valid JSON.
void append_double(std::string& out, double v);

/// Minimal JSON object/array builder with correct string escaping and
/// comma management; deliberately append-only (no DOM) so emission is a
/// single pass.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(512); }  // interval records are ~1-2 KiB

  JsonWriter& begin_object() { open('{'); return *this; }
  JsonWriter& end_object() { close('}'); return *this; }
  JsonWriter& begin_array() { open('['); return *this; }
  JsonWriter& end_array() { close(']'); return *this; }

  JsonWriter& key(const char* k) {
    comma();
    append_string(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    comma();
    append_string(v.c_str());
    mark_written();
    return *this;
  }
  JsonWriter& value(const char* v) {
    comma();
    append_string(v);
    mark_written();
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    mark_written();
    return *this;
  }
  JsonWriter& value(double v);  ///< non-finite: null (JSON has no inf/nan)
  JsonWriter& value(u64 v);
  JsonWriter& value(i64 v);
  JsonWriter& value(u32 v) { return value(static_cast<u64>(v)); }
  JsonWriter& value(int v) { return value(static_cast<i64>(v)); }

  const std::string& str() const noexcept { return out_; }

 private:
  void open(char c) {
    comma();
    out_ += c;
    need_comma_.push_back(false);
  }
  void close(char c) {
    out_ += c;
    need_comma_.pop_back();
    mark_written();
  }
  void comma() {
    if (pending_value_) {  // value directly follows its key: no comma
      pending_value_ = false;
      return;
    }
    if (!need_comma_.empty() && need_comma_.back()) out_ += ',';
  }
  // Every completed element (scalar value or closed container) marks its
  // enclosing container so the *next* element gets a comma.
  void mark_written() {
    if (!need_comma_.empty()) need_comma_.back() = true;
  }
  void append_string(const char* s);

  std::string out_;
  std::vector<bool> need_comma_;
  bool pending_value_ = false;
};

}  // namespace ofar
