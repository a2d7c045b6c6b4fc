// Helpers shared by the row and vectorized engines: join-predicate
// splitting, key hashing, aggregate accumulators, and the packed group-key
// encoding used by hash aggregation.
//
// Group keys are packed bytes, not display strings: numerics contribute
// their double bit pattern (so an int64 1 and a double 1.0 — which
// compare equal — also key equal, mirroring Value::operator==), strings
// are length-prefixed, bools one byte. Unlike the former to_string()
// keys this is lossless for doubles and allocation-light.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/common/assert.hpp"
#include "src/storage/table.hpp"

namespace mvd {

/// Rows per morsel in the vectorized engine. Fixed independently of the
/// thread count so morsel boundaries — and therefore merge order and
/// output — are identical at any parallelism.
inline constexpr std::size_t kMorselRows = 2048;

inline std::size_t morsel_count(std::size_t rows) {
  return rows == 0 ? 0 : (rows + kMorselRows - 1) / kMorselRows;
}

// ---- Observability ----------------------------------------------------

/// Operator names indexed by OpKind, shared by both engines' span names
/// and registry counters so row and vectorized runs publish under
/// identical "exec/op/<name>/..." keys (the stats-parity test compares
/// those keys between engines).
inline constexpr const char* kExecOpNames[] = {"scan", "select", "project",
                                               "join", "aggregate"};
inline constexpr std::size_t kExecOpKinds = 5;

/// Flush one run's per-operator block/row tallies (arrays indexed by
/// OpKind) to the global registry, under both the engine-agnostic
/// "exec/op/..." and the engine-tagged "exec/<engine>/op/..." names.
/// Defined in executor.cpp; callers gate on counters_enabled().
void publish_op_tallies(const char* engine, const double* blocks,
                        const double* rows);

/// The join predicate split into hashable equi conjuncts (left column ×
/// right column) and a residual predicate evaluated on joined tuples.
struct JoinSplit {
  std::vector<std::pair<std::size_t, std::size_t>> equi;  // left idx, right idx
  std::vector<ExprPtr> residual;
};

inline JoinSplit split_join_predicate(const JoinOp& op, const Schema& left,
                                      const Schema& right) {
  JoinSplit split;
  for (const ExprPtr& c : conjuncts_of(op.predicate())) {
    if (auto pair = as_column_equality(c); pair.has_value()) {
      const auto li = left.find(pair->left);
      const auto ri = right.find(pair->right);
      if (li.has_value() && ri.has_value()) {
        split.equi.emplace_back(*li, *ri);
        continue;
      }
      const auto li2 = left.find(pair->right);
      const auto ri2 = right.find(pair->left);
      if (li2.has_value() && ri2.has_value()) {
        split.equi.emplace_back(*li2, *ri2);
        continue;
      }
    }
    split.residual.push_back(c);
  }
  return split;
}

inline std::size_t tuple_hash_key(const Tuple& t,
                                  const std::vector<std::size_t>& indices) {
  std::size_t seed = 0x51ed5eedULL;
  for (std::size_t i : indices) {
    seed ^= t[i].hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

inline bool tuple_keys_equal(const Tuple& a, const std::vector<std::size_t>& ai,
                             const Tuple& b,
                             const std::vector<std::size_t>& bi) {
  for (std::size_t k = 0; k < ai.size(); ++k) {
    if (!(a[ai[k]] == b[bi[k]])) return false;
  }
  return true;
}

// ---- Packed group keys ------------------------------------------------

inline void append_packed_f64(std::string& key, double v) {
  char bits[sizeof(double)];
  std::memcpy(bits, &v, sizeof(double));
  key += 'n';
  key.append(bits, sizeof(double));
}

inline void append_packed_str(std::string& key, const std::string& v) {
  const auto len = static_cast<std::uint32_t>(v.size());
  char bits[sizeof(std::uint32_t)];
  std::memcpy(bits, &len, sizeof(len));
  key += 's';
  key.append(bits, sizeof(len));
  key += v;
}

inline void append_packed_bool(std::string& key, bool v) {
  key += 'b';
  key += v ? '\1' : '\0';
}

inline void append_packed_key(std::string& key, const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDate:
    case ValueType::kDouble:
      append_packed_f64(key, v.as_double());
      return;
    case ValueType::kString:
      append_packed_str(key, v.as_string());
      return;
    case ValueType::kBool:
      append_packed_bool(key, v.as_bool());
      return;
  }
  MVD_ASSERT(false);
}

// ---- Aggregate accumulation -------------------------------------------

/// COUNT/SUM running state of one aggregate within one group — all that
/// COUNT, SUM, SUM_INT and AVG need.
struct SumCount {
  double count = 0;
  double sum = 0;

  /// Fold another partial in. Order-sensitive through `sum` for double
  /// inputs; callers merge partials in deterministic morsel order.
  void merge(const SumCount& other) {
    count += other.count;
    sum += other.sum;
  }

  Value result(AggFn fn, ValueType /*output_type*/) const {
    switch (fn) {
      case AggFn::kCount:
        return Value::int64(static_cast<std::int64_t>(count));
      case AggFn::kSum:
        return Value::real(sum);
      case AggFn::kSumInt:
        // Inputs are int64 (enforced at plan build); the double running
        // sum is exact below 2^53, so the round-trip is lossless.
        return Value::int64(std::llround(sum));
      case AggFn::kAvg:
        return Value::real(count > 0 ? sum / count : 0.0);
      case AggFn::kMin:
      case AggFn::kMax:
        break;  // tracked by Accumulator only
    }
    MVD_ASSERT(false);
    return Value::int64(0);
  }
};

/// Running state of one aggregate within one group, MIN/MAX included.
struct Accumulator : SumCount {
  std::optional<Value> min;
  std::optional<Value> max;

  void feed(const Value& v) {
    count += 1;
    if (is_numeric(v.type())) sum += v.as_double();
    if (!min.has_value() || v.compare(*min) < 0) min = v;
    if (!max.has_value() || v.compare(*max) > 0) max = v;
  }

  void merge(const Accumulator& other) {
    SumCount::merge(other);
    if (other.min.has_value() &&
        (!min.has_value() || other.min->compare(*min) < 0)) {
      min = other.min;
    }
    if (other.max.has_value() &&
        (!max.has_value() || other.max->compare(*max) > 0)) {
      max = other.max;
    }
  }

  Value result(AggFn fn, ValueType output_type) const {
    if (fn != AggFn::kMin && fn != AggFn::kMax) {
      return SumCount::result(fn, output_type);
    }
    const std::optional<Value>& v = fn == AggFn::kMin ? min : max;
    if (v.has_value()) return *v;
    // Empty global group: a zero of the column's type (SQL would say
    // NULL; the engine has no nulls, documented limitation).
    switch (output_type) {
      case ValueType::kString: return Value::string("");
      case ValueType::kDouble: return Value::real(0);
      case ValueType::kDate: return Value::date(0);
      case ValueType::kBool: return Value::boolean(false);
      case ValueType::kInt64: break;
    }
    return Value::int64(0);
  }
};

}  // namespace mvd
