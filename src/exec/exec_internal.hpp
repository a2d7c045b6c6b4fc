// Helpers shared by the row and vectorized engines: join-predicate
// splitting, aggregate accumulators, the packed group-key encoding, and
// the row operators themselves — hash join and hash aggregation over
// tuples, which the row engine, the sharded executor's partial -> final
// merge, the delta joins and the grouped apply all run.
//
// Group keys are packed bytes, not display strings: numerics contribute
// their double bit pattern (so an int64 1 and a double 1.0 — which
// compare equal — also key equal, mirroring Value::operator==; 0.0 and
// -0.0 key apart), strings are length-prefixed, bools one byte. Unlike
// the former to_string() keys this is lossless for doubles and
// allocation-light. Join keys hash through Value::hash and match by
// Value::operator==.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/eval.hpp"
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

// ---- Row hash join ----------------------------------------------------

/// Build side of a row hash join: rows keyed by their columns `cols`, each
/// with an int payload (a delta row's sign). Rows are referenced, not
/// copied, and must outlive the index. Matches come back in the
/// multimap's order, which follows from the reserve and the insert order
/// alone, so a caller that keeps both keeps its output order. A row whose
/// key holds a NaN joins nothing, on either side (IEEE equality, as in
/// the vectorized join).
class RowHashIndex {
 public:
  RowHashIndex(std::vector<std::size_t> cols, std::size_t rows)
      : cols_(std::move(cols)) {
    table_.reserve(rows);
  }

  void insert(const Tuple& t, int payload = 0) {
    if (has_nan(t, cols_)) return;
    table_.emplace(hash_key(t, cols_), Entry{&t, payload});
  }

  /// Calls `fn(row, payload)` for every build row whose key equals probe
  /// row `p`'s columns `p_cols`.
  template <typename Fn>
  void probe(const Tuple& p, const std::vector<std::size_t>& p_cols,
             Fn&& fn) const {
    if (has_nan(p, p_cols)) return;
    auto [lo, hi] = table_.equal_range(hash_key(p, p_cols));
    for (auto it = lo; it != hi; ++it) {
      const Tuple& b = *it->second.row;
      bool equal = true;
      for (std::size_t k = 0; k < cols_.size() && equal; ++k) {
        equal = p[p_cols[k]] == b[cols_[k]];
      }
      if (equal) fn(b, it->second.payload);
    }
  }

 private:
  struct Entry {
    const Tuple* row;
    int payload;
  };

  static bool has_nan(const Tuple& t, const std::vector<std::size_t>& cols) {
    for (std::size_t i : cols) {
      if (t[i].type() == ValueType::kDouble && std::isnan(t[i].as_double())) {
        return true;
      }
    }
    return false;
  }

  static std::size_t hash_key(const Tuple& t,
                              const std::vector<std::size_t>& cols) {
    std::size_t seed = 0x51ed5eedULL;
    for (std::size_t i : cols) {
      seed ^= t[i].hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }

  std::vector<std::size_t> cols_;
  std::unordered_multimap<std::size_t, Entry> table_;
};

/// Joined rows: the concatenation of a matched pair, kept when it passes
/// the join's residual conjuncts (compiled once over left ++ right).
class RowJoiner {
 public:
  RowJoiner(const JoinSplit& split, const Schema& left, const Schema& right) {
    if (split.residual.empty()) return;
    residual_.emplace(conj(split.residual), Schema::concat(left, right));
  }

  std::optional<Tuple> join(const Tuple& l, const Tuple& r) const {
    Tuple joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    if (residual_.has_value() && !residual_->matches(joined)) {
      return std::nullopt;
    }
    return joined;
  }

 private:
  std::optional<CompiledExpr> residual_;
};

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

// ---- Row hash aggregation ---------------------------------------------

/// Group key -> id over rows, keyed by the packed bytes of the given
/// columns.
class GroupIndex {
 public:
  void reserve(std::size_t n) { ids_.reserve(n); }

  /// The id of the key of `t`'s columns `cols`, storing `id` for it when
  /// the key is new (second = true).
  std::pair<std::size_t, bool> try_emplace(
      const Tuple& t, const std::vector<std::size_t>& cols, std::size_t id) {
    pack(t, cols);
    const auto [it, inserted] = ids_.try_emplace(key_, id);
    return {it->second, inserted};
  }

  std::optional<std::size_t> find(const Tuple& t,
                                  const std::vector<std::size_t>& cols) {
    pack(t, cols);
    const auto it = ids_.find(key_);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

 private:
  void pack(const Tuple& t, const std::vector<std::size_t>& cols) {
    key_.clear();
    for (std::size_t c : cols) append_packed_key(key_, t[c]);
  }

  std::unordered_map<std::string, std::size_t> ids_;
  std::string key_;  // scratch
};

/// One aggregate result row: the group's key values, then each aggregate's
/// result typed by the output schema `out` (group columns lead it).
inline Tuple aggregate_row(const std::vector<AggSpec>& specs,
                           const Schema& out, Tuple key,
                           const std::vector<Accumulator>& accs) {
  const std::size_t n_groups = key.size();
  for (std::size_t a = 0; a < accs.size(); ++a) {
    key.push_back(accs[a].result(specs[a].fn, out.at(n_groups + a).type));
  }
  return key;
}

/// Where an aggregate reads its input rows: the group-key columns and
/// each aggregate's column.
struct AggInputs {
  AggInputs(const AggregateOp& op, const Schema& input) {
    for (const std::string& g : op.group_by()) {
      group.push_back(input.index_of(g));
    }
    for (const AggSpec& a : op.aggregates()) {
      agg.push_back(a.column.empty() ? SIZE_MAX : input.index_of(a.column));
    }
  }

  /// The value aggregate `a` folds for row `t` (1 for COUNT(*)).
  Value value(const Tuple& t, std::size_t a) const {
    return agg[a] == SIZE_MAX ? Value::int64(1) : t[agg[a]];
  }

  std::vector<std::size_t> group;
  std::vector<std::size_t> agg;  // SIZE_MAX for COUNT(*)
};

/// Hash aggregation of an AggregateOp's input rows: one Accumulator per
/// aggregate per group, groups in first-seen order.
class GroupTable {
 public:
  GroupTable(const AggregateOp& op, const Schema& input)
      : op_(&op), in_(op, input) {
    for (std::size_t k = 0; k < in_.group.size(); ++k) key_cols_.push_back(k);
  }

  std::size_t size() const { return keys_.size(); }

  void feed(const Tuple& t) {
    const auto [g, inserted] = index_.try_emplace(t, in_.group, size());
    if (inserted) {
      Tuple key;
      key.reserve(in_.group.size());
      for (std::size_t gi : in_.group) key.push_back(t[gi]);
      add_group(std::move(key));
    }
    for (std::size_t a = 0; a < in_.agg.size(); ++a) {
      accs_[g][a].feed(in_.value(t, a));
    }
  }

  /// Fold `other`'s groups in, in their first-seen order; a group new here
  /// starts from fresh accumulators and merges the other's into them.
  void merge(GroupTable&& other) {
    for (std::size_t o = 0; o < other.size(); ++o) {
      const auto [g, inserted] =
          index_.try_emplace(other.keys_[o], key_cols_, size());
      if (inserted) add_group(std::move(other.keys_[o]));
      for (std::size_t a = 0; a < accs_[g].size(); ++a) {
        accs_[g][a].merge(other.accs_[o][a]);
      }
    }
  }

  /// Append one result row per group to `out`, moving the keys out; a
  /// global aggregate over an empty input yields SQL's one row.
  void emit(Table& out) {
    if (keys_.empty() && in_.group.empty()) add_group({});
    for (std::size_t g = 0; g < size(); ++g) {
      out.append(aggregate_row(op_->aggregates(), op_->output_schema(),
                               std::move(keys_[g]), accs_[g]));
    }
  }

 private:
  void add_group(Tuple key) {
    keys_.push_back(std::move(key));
    accs_.emplace_back(in_.agg.size());
  }

  const AggregateOp* op_;
  AggInputs in_;
  std::vector<std::size_t> key_cols_;  // 0..n-1 over a group's key
  GroupIndex index_;
  std::vector<Tuple> keys_;
  std::vector<std::vector<Accumulator>> accs_;
};

}  // namespace mvd
