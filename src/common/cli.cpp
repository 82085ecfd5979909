#include "common/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace ofar {

CommandLine::CommandLine(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string key = arg.substr(2);
    std::string value = "true";  // bare flag
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    values_[key] = value;
    used_[key] = false;
  }
}

bool CommandLine::has(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  used_[key] = true;
  return true;
}

std::string CommandLine::get_string(const std::string& key,
                                    const std::string& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return it->second;
}

i64 CommandLine::get_int(const std::string& key, i64 fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

u64 CommandLine::get_uint(const std::string& key, u64 fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

double CommandLine::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CommandLine::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CommandLine::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : used_)
    if (!used) out.push_back(key);
  return out;
}

}  // namespace ofar
