#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/strings.hpp"

namespace sdt::json {

namespace {
const Value kNullValue{};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skipWs();
    auto v = parseValue();
    if (!v) return v;
    skipWs();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  Result<Value> fail(const std::string& why) {
    return makeError(strFormat("JSON parse error at offset %zu: %s", pos_, why.c_str()));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        // Permit // comments: config files are written by humans.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> parseValue() {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': {
        auto s = parseString();
        if (!s) return s.error();
        return Value{std::move(s).value()};
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Value{true};
        }
        return fail("expected 'true'");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Value{false};
        }
        return fail("expected 'false'");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Value{nullptr};
        }
        return fail("expected 'null'");
      default: return parseNumber();
    }
  }

  Result<Value> parseObject() {
    ++pos_;  // '{'
    Object obj;
    skipWs();
    if (consume('}')) return Value{std::move(obj)};
    while (true) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      auto key = parseString();
      if (!key) return key.error();
      skipWs();
      if (!consume(':')) return fail("expected ':' after object key");
      skipWs();
      auto val = parseValue();
      if (!val) return val;
      obj.emplace(std::move(key).value(), std::move(val).value());
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) return Value{std::move(obj)};
      return fail("expected ',' or '}' in object");
    }
  }

  Result<Value> parseArray() {
    ++pos_;  // '['
    Array arr;
    skipWs();
    if (consume(']')) return Value{std::move(arr)};
    while (true) {
      skipWs();
      auto val = parseValue();
      if (!val) return val;
      arr.push_back(std::move(val).value());
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) return Value{std::move(arr)};
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return makeError("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return makeError("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; config files never need surrogates).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return makeError("unknown escape sequence");
        }
      } else {
        out.push_back(c);
      }
    }
    return makeError("unterminated string");
  }

  Result<Value> parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (consume('.')) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string num{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("malformed number");
    return Value{v};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dumpString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}
}  // namespace

const Value& Value::at(const std::string& key) const {
  if (!isObject()) return kNullValue;
  const auto it = obj_.find(key);
  return it == obj_.end() ? kNullValue : it->second;
}

std::int64_t Value::asInt() const {
  constexpr double kTwo63 = 9223372036854775808.0;  // exact as a double
  if (std::isnan(num_)) return 0;
  if (num_ >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (num_ < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(num_);
}

std::int64_t Value::getInt(const std::string& key, std::int64_t fallback) const {
  const Value& v = at(key);
  return v.isNumber() ? v.asInt() : fallback;
}

double Value::getDouble(const std::string& key, double fallback) const {
  const Value& v = at(key);
  return v.isNumber() ? v.asDouble() : fallback;
}

bool Value::getBool(const std::string& key, bool fallback) const {
  const Value& v = at(key);
  return v.isBool() ? v.asBool() : fallback;
}

std::string Value::getString(const std::string& key, std::string fallback) const {
  const Value& v = at(key);
  return v.isString() ? v.asString() : fallback;
}

void Value::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: {
      if (std::floor(num_) == num_ && std::abs(num_) < 9.0e15) {
        out += strFormat("%lld", static_cast<long long>(num_));
      } else {
        out += strFormat("%.17g", num_);
      }
      break;
    }
    case Type::kString: dumpString(out, str_); break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        v.dumpTo(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dumpString(out, k);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        v.dumpTo(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

Result<Value> parse(std::string_view text) { return Parser{text}.run(); }

Result<Value> parseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return makeError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace sdt::json
