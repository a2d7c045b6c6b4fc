// Runtime values held by the in-memory storage engine and evaluated by the
// executor. A Value is a tagged union over the catalog's ValueType set;
// dates are int64 days-since-epoch carrying the kDate tag.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>

#include "src/catalog/value_type.hpp"

namespace mvd {

class Value {
 public:
  Value() : type_(ValueType::kInt64), data_(std::int64_t{0}) {}

  static Value int64(std::int64_t v) { return Value(ValueType::kInt64, v); }
  static Value real(double v) { return Value(ValueType::kDouble, v); }
  static Value string(std::string v) {
    return Value(ValueType::kString, std::move(v));
  }
  static Value boolean(bool v) { return Value(ValueType::kBool, v); }
  /// A date from days-since-epoch.
  static Value date(std::int64_t days) { return Value(ValueType::kDate, days); }
  /// A date from a civil y/m/d (proleptic Gregorian).
  static Value date_ymd(int year, int month, int day);

  ValueType type() const { return type_; }

  std::int64_t as_int64() const;
  double as_double() const;  // int64/date/double coerce; others throw
  const std::string& as_string() const;
  bool as_bool() const;

  /// Total order within one type; comparing across incompatible types
  /// throws ExecError (numeric kinds compare by as_double()).
  std::strong_ordering compare(const Value& other) const;
  bool operator==(const Value& other) const;

  /// Same type and same representation (doubles by bit pattern), a
  /// stricter test than ==: 1 and 1.0, or 0.0 and -0.0, are equal but
  /// not identical. Literal text reads differently for such pairs.
  bool identical(const Value& other) const;

  std::size_t hash() const;

  /// Display form: strings quoted, dates as YYYY-MM-DD.
  std::string to_string() const;

  /// Days-since-epoch for a civil date (Howard Hinnant's algorithm).
  static std::int64_t days_from_civil(int year, int month, int day);
  /// Inverse of days_from_civil.
  static void civil_from_days(std::int64_t days, int& year, int& month,
                              int& day);

 private:
  template <typename T>
  Value(ValueType type, T&& data) : type_(type), data_(std::forward<T>(data)) {}

  ValueType type_;
  std::variant<std::int64_t, double, std::string, bool> data_;
};

}  // namespace mvd

template <>
struct std::hash<mvd::Value> {
  std::size_t operator()(const mvd::Value& v) const { return v.hash(); }
};
