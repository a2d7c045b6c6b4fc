// Digest helpers shared by the golden tests: an order-, type- and
// bit-exact rendering of a table's rows and of doubles, digested with
// FNV-1a (src/common/hash.hpp), and the hex list a failing golden prints
// so a new recording can be pasted back.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/hash.hpp"
#include "src/storage/table.hpp"

namespace mvd {

/// A double as exact hex-float text.
inline std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

/// Order-, type- and bit-exact rendering of a table's rows, digested.
inline std::uint64_t table_digest(const Table& t) {
  std::string s;
  for (const Tuple& row : t.rows()) {
    for (const Value& v : row) {
      s += std::to_string(static_cast<int>(v.type()));
      s += ':';
      switch (v.type()) {
        case ValueType::kInt64:
        case ValueType::kDate:
          s += std::to_string(v.as_int64());
          break;
        case ValueType::kDouble: {
          std::uint64_t bits;
          const double d = v.as_double();
          std::memcpy(&bits, &d, sizeof(bits));
          s += std::to_string(bits);
          break;
        }
        case ValueType::kString:
          s += std::to_string(v.as_string().size()) + '"' + v.as_string();
          break;
        case ValueType::kBool:
          s += v.as_bool() ? 't' : 'f';
          break;
      }
      s += ',';
    }
    s += '\n';
  }
  return fnv1a(s);
}

/// "0x...ull, " per digest, as pinned in the golden tables.
inline std::string hex_list(const std::vector<std::uint64_t>& digests) {
  std::string s;
  for (const std::uint64_t d : digests) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(d));
    s += buf;
  }
  return s;
}

}  // namespace mvd
