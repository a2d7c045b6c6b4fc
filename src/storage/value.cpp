#include "src/storage/value.hpp"

#include <bit>
#include <charconv>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/hash.hpp"

namespace mvd {

Value Value::date_ymd(int year, int month, int day) {
  return date(days_from_civil(year, month, day));
}

std::int64_t Value::as_int64() const {
  if (type_ == ValueType::kInt64 || type_ == ValueType::kDate) {
    return std::get<std::int64_t>(data_);
  }
  throw ExecError("value " + to_string() + " is not an integer");
}

double Value::as_double() const {
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return static_cast<double>(std::get<std::int64_t>(data_));
    case ValueType::kDouble:
      return std::get<double>(data_);
    default:
      throw ExecError("value " + to_string() + " is not numeric");
  }
}

const std::string& Value::as_string() const {
  if (type_ != ValueType::kString) {
    throw ExecError("value " + to_string() + " is not a string");
  }
  return std::get<std::string>(data_);
}

bool Value::as_bool() const {
  if (type_ != ValueType::kBool) {
    throw ExecError("value " + to_string() + " is not a bool");
  }
  return std::get<bool>(data_);
}

namespace {
std::strong_ordering order_doubles(double a, double b) {
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}
}  // namespace

std::strong_ordering Value::compare(const Value& other) const {
  if (is_numeric(type_) && is_numeric(other.type_)) {
    return order_doubles(as_double(), other.as_double());
  }
  if (type_ != other.type_) {
    throw ExecError("cannot compare " + to_string() + " with " +
                    other.to_string());
  }
  switch (type_) {
    case ValueType::kString: {
      const int c = as_string().compare(other.as_string());
      if (c < 0) return std::strong_ordering::less;
      if (c > 0) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
    case ValueType::kBool:
      return static_cast<int>(as_bool()) <=> static_cast<int>(other.as_bool());
    default:
      MVD_ASSERT_MSG(false, "unhandled type in compare");
      return std::strong_ordering::equal;
  }
}

bool Value::operator==(const Value& other) const {
  if (is_numeric(type_) != is_numeric(other.type_)) return false;
  if (!is_numeric(type_) && type_ != other.type_) return false;
  return compare(other) == std::strong_ordering::equal;
}

bool Value::identical(const Value& other) const {
  if (type_ != other.type_) return false;
  if (type_ == ValueType::kDouble) {
    return std::bit_cast<std::uint64_t>(std::get<double>(data_)) ==
           std::bit_cast<std::uint64_t>(std::get<double>(other.data_));
  }
  return data_ == other.data_;
}

std::size_t Value::hash() const {
  std::size_t seed = 0;
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate:
      // Hash numerics through double so 1 (int) and 1.0 (double) — which
      // compare equal — also hash equal.
      hash_combine(seed, static_cast<double>(std::get<std::int64_t>(data_)));
      break;
    case ValueType::kDouble:
      hash_combine(seed, std::get<double>(data_));
      break;
    case ValueType::kString:
      hash_combine(seed, std::get<std::string>(data_));
      break;
    case ValueType::kBool:
      hash_combine(seed, std::get<bool>(data_));
      break;
  }
  return seed;
}

std::string Value::to_string() const {
  // Built directly: expression texts and fingerprints render literals on
  // every bind.
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(std::get<std::int64_t>(data_));
    case ValueType::kDouble: {
      // The shortest text that reads back as the same double, so two
      // distinct literals never render (and sort, and dedup) as one. Fixed
      // notation keeps the text a literal the SQL lexer reads; the widest
      // case is the smallest subnormal, 0. and 324 fraction digits.
      char buf[400];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                           std::get<double>(data_),
                                           std::chars_format::fixed);
      MVD_ASSERT(ec == std::errc());
      return std::string(buf, end);
    }
    case ValueType::kString:
      return '\'' + std::get<std::string>(data_) + '\'';
    case ValueType::kBool:
      return std::get<bool>(data_) ? "true" : "false";
    case ValueType::kDate: {
      int y = 0, m = 0, d = 0;
      civil_from_days(std::get<std::int64_t>(data_), y, m, d);
      return std::to_string(y) + (m < 10 ? "-0" : "-") + std::to_string(m) +
             (d < 10 ? "-0" : "-") + std::to_string(d);
    }
  }
  MVD_ASSERT(false);
  return {};
}

std::int64_t Value::days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<std::int64_t>(era) * 146097 +
         static_cast<std::int64_t>(doe) - 719468;
}

void Value::civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  year = static_cast<int>(y + (month <= 2));
}

}  // namespace mvd
