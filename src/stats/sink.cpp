#include "stats/sink.hpp"

#include <charconv>
#include <cmath>

namespace ofar {

// Number formatting uses std::to_chars (shortest round-trip form): records
// carry ~45 numbers each, and snprintf("%.12g") alone made an interval
// snapshot cost ~15us — to_chars is roughly an order of magnitude cheaper
// and locale-independent. The shortest form ("0.25", "1e+22") is valid JSON.
JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {  // JSON has no inf/nan literal
    out_ += "null";
  } else {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
  }
  mark_written();
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  comma();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  mark_written();
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  comma();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  mark_written();
  return *this;
}

void JsonWriter::append_string(const char* s) {
  out_ += '"';
  // Fast path: metric names and labels are almost always escape-free, and
  // json_escape's return allocation dominates the cost of a key.
  const char* p = s;
  for (; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\' || c < 0x20) break;
  }
  if (*p == '\0') {
    out_ += s;
  } else {
    out_ += json_escape(s);
  }
  out_ += '"';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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
