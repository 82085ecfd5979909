// Minimal command-line parser for the bench and example binaries.
//
// Supports `--key value`, `--key=value` and bare `--flag` forms. A
// non-"--" token following a key is always consumed as its value, so bare
// flags must appear last or use `--flag=true`. Unknown keys are collected
// so binaries can reject typos with a clear message.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ofar {

class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  i64 get_int(const std::string& key, i64 fallback) const;
  u64 get_uint(const std::string& key, u64 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Presence-style boolean: true when `--key` (or `--key=true`) was given,
  /// false when absent or `--key=false`.
  bool get_flag(const std::string& key) const { return get_bool(key, false); }

  /// Keys that were supplied but never queried; call after all get_* calls
  /// to detect typos. Returns the unused keys.
  std::vector<std::string> unused_keys() const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace ofar
