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

namespace ofar {

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
