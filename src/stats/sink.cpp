#include "stats/sink.hpp"

namespace ofar {

MetricsSink::MetricsSink(std::FILE* f, std::string path)
    : file_(f), path_(std::move(path)) {}

std::unique_ptr<MetricsSink> MetricsSink::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return nullptr;
  return std::unique_ptr<MetricsSink>(new MetricsSink(f, path));
}

MetricsSink::~MetricsSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void MetricsSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

}  // namespace ofar
