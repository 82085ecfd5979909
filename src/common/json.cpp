#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ofar {

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_int(i64 v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = static_cast<double>(v);
  j.int_ = v;
  j.int_valid_ = true;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.items_ = std::move(items);
  return j;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.members_ = std::move(members);
  return j;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after document");
    return true;
  }

 private:
  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth)
          return fail("nesting deeper than " +
                      std::to_string(kJsonMaxDepth) + " levels");
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        return fail(std::string("unexpected character '") + c + "'");
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') return fail("expected string key");
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        out = JsonValue::make_object(std::move(members));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      items.push_back(std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        out = JsonValue::make_array(std::move(items));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue::make_string(std::move(s));
    return true;
  }

  bool parse_string_raw(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            u32 cp = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size()) return fail("truncated \\u escape");
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<u32>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<u32>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<u32>(h - 'A' + 10);
              else return fail("invalid hex digit in \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are passed
            // through as two 3-byte sequences; specs and journals are ASCII
            // in practice).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("invalid escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("malformed number");
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return fail("malformed number '" + token + "'");
    if (integral) {
      errno = 0;
      const long long ll = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out = JsonValue::make_int(static_cast<i64>(ll));
        return true;
      }
    }
    out = JsonValue::make_number(d);
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = JsonValue::make_bool(true);
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = JsonValue::make_bool(false);
      return true;
    }
    return fail("expected 'true' or 'false'");
  }

  bool parse_null(JsonValue& out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out = JsonValue::make_null();
      return true;
    }
    return fail("expected 'null'");
  }

  char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  bool fail(const std::string& message) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    char prefix[48];
    std::snprintf(prefix, sizeof prefix, "line %zu, column %zu: ", line, col);
    error_ = prefix + message;
    return false;
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
  u32 depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, std::string& error) {
  Parser p(text, error);
  return p.parse(out);
}

bool json_parse_file(const std::string& path, JsonValue& out,
                     std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot read " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    text.append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    error = "cannot read " + path;
    return false;
  }
  if (!json_parse(text, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

// Numbers are formatted with std::to_chars: telemetry records carry ~45
// numbers each, and snprintf("%.12g") alone made an interval snapshot cost
// ~15us — to_chars is roughly an order of magnitude cheaper and
// locale-independent.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (std::isfinite(v))
    append_double(out_, v);
  else
    out_ += "null";
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
  // Names and labels are almost always escape-free: append each run of
  // plain characters in one piece.
  for (const char* run = s;; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c != '\0' && c != '"' && c != '\\' && c >= 0x20) continue;
    out_.append(run, s);
    if (c == '\0') break;
    run = s + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      }
    }
  }
  out_ += '"';
}

}  // namespace ofar
