// Chrome trace-event JSON export (DESIGN.md §11).
//
// Emits the "JSON Object Format" consumed by chrome://tracing and
// https://ui.perfetto.dev: a {"traceEvents":[...]} object of metadata
// ("M"), complete-span ("X") and instant ("i") events. The tracer maps one
// sampled packet to one Perfetto *process* (pid = injection sequence
// number) and each router the packet visits to a *thread* of that process,
// so the UI renders a packet's journey as stacked per-router tracks with
// the routing-decision provenance in the span args.
//
// Cycles are written as microseconds (1 cycle == 1 us): the UI's time axis
// then reads directly in cycles.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace ofar::trace {

class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::string label) : label_(std::move(label)) {}

  /// Metadata: names the process `pid` in the UI's track list.
  void process_name(u64 pid, const std::string& name);
  /// Metadata: names thread `tid` of process `pid`.
  void thread_name(u64 pid, u64 tid, const std::string& name);
  /// Complete ("X") span covering [ts, ts + dur). `args_json` must be a
  /// pre-rendered JSON object ("" for none).
  void complete_event(u64 pid, u64 tid, const std::string& name, Cycle ts,
                      Cycle dur, const std::string& args_json);
  /// Instant ("i") event with thread scope.
  void instant_event(u64 pid, u64 tid, const std::string& name, Cycle ts,
                     const std::string& args_json);

  /// Writes {"traceEvents":[...],"displayTimeUnit":"ms","otherData":{...}}.
  /// Returns false when the file cannot be created or written.
  bool write_file(const std::string& path) const;

 private:
  std::string label_;
  std::vector<std::string> events_;  ///< pre-rendered event objects
};

}  // namespace ofar::trace
