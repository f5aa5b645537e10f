// Minimal JSON value type for the service wire protocol and machine-readable
// benchmark output.
//
// Deliberately small: the newline-delimited protocol (service/protocol.hpp)
// only needs null/bool/number/string/array/object, strict parsing with
// location-free error messages, and deterministic serialization (object keys
// ordered, integers printed without an exponent). Numbers are stored as
// doubles; integral values up to 2^53 round-trip exactly, which covers every
// counter the protocol carries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rqsim {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;  // null
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : type_(Type::kNumber), number_(value) {}
  Json(std::uint64_t value) : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw rqsim::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::uint64_t as_u64() const;  // must be integral and >= 0
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field access. `set` upgrades a null value to an object.
  bool has(const std::string& key) const;
  const Json& at(const std::string& key) const;  // throws if missing
  void set(const std::string& key, Json value);

  /// Lookup with defaults (missing key or null value yields the default).
  std::string get_string(const std::string& key, const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Append to an array value.
  void push_back(Json value);

  /// Compact single-line serialization (object keys in sorted order).
  std::string dump() const;

  /// Strict parse of exactly one JSON value (throws rqsim::Error).
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace rqsim
