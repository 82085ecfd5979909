// Streaming metrics sink: one self-contained JSON record per line (JSONL),
// appended to a file as the simulation runs, e.g.
//   {"type":"interval","label":"OFAR","cycle":2000,"metrics":{...}}
// JSONL is the only format, whatever the file's extension.
//
// The sink is shared by every simulation of a sweep: write_line is
// thread-safe (one mutex, one fwrite per record), so parallel sweep points
// can interleave whole records but never tear one. The sink never reads
// simulation state and is owned by the driver, not the Network.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ofar {

/// Minimal JSON object/array builder with correct string escaping and
/// comma management. Used by the telemetry layer to serialise records;
/// deliberately append-only (no DOM) so emission is a single pass.
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
  JsonWriter& value(double v);
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

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

class MetricsSink {
 public:
  /// Opens (truncates) `path`. Returns nullptr when the file cannot be
  /// created.
  static std::unique_ptr<MetricsSink> open(const std::string& path);

  ~MetricsSink();
  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Appends one complete record (without trailing newline) atomically with
  /// respect to other threads writing to the same sink.
  void write_line(const std::string& line);

 private:
  MetricsSink(std::FILE* f, std::string path);

  std::FILE* file_;
  std::string path_;
  std::mutex mutex_;
};

}  // namespace ofar
