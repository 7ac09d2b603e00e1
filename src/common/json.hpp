// Minimal JSON value + recursive-descent parser + writer.
//
// SDT's controller consumes user-written topology configuration files
// (paper §V, Fig. 2): small JSON documents naming a topology, its parameters,
// routing strategy, and deployment options. This parser supports the full
// JSON grammar except for \u escapes beyond Latin-1 (config files are ASCII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace sdt::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// A JSON value with value semantics. Numbers are stored as double; integral
/// accessors round-trip exactly for |x| < 2^53 which covers every config knob.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}                  // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}                // NOLINT
  Value(double n) : type_(Type::kNumber), num_(n) {}             // NOLINT
  Value(int n) : type_(Type::kNumber), num_(n) {}                // NOLINT
  Value(std::int64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}        // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}    // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNull() const { return type_ == Type::kNull; }
  [[nodiscard]] bool isBool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool isNumber() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool isString() const { return type_ == Type::kString; }
  [[nodiscard]] bool isArray() const { return type_ == Type::kArray; }
  [[nodiscard]] bool isObject() const { return type_ == Type::kObject; }

  [[nodiscard]] bool asBool() const { return bool_; }
  [[nodiscard]] double asDouble() const { return num_; }
  /// The number truncated toward zero and saturated to the int64 range (NaN
  /// reads as 0): untrusted input must not reach the undefined plain cast.
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] const std::string& asString() const { return str_; }
  [[nodiscard]] const Array& asArray() const { return arr_; }
  [[nodiscard]] Array& asArray() { return arr_; }
  [[nodiscard]] const Object& asObject() const { return obj_; }
  [[nodiscard]] Object& asObject() { return obj_; }

  /// Object member access; returns null value when missing or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// Typed getters with defaults, for ergonomic config reading.
  [[nodiscard]] std::int64_t getInt(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key, double fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string getString(const std::string& key, std::string fallback) const;

  /// Serialize. `indent` < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse a JSON document. Errors carry a byte offset and reason.
Result<Value> parse(std::string_view text);

/// Parse the file at `path` (convenience for config loading).
Result<Value> parseFile(const std::string& path);

}  // namespace sdt::json
