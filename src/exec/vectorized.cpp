#include "src/exec/vectorized.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>

#include "src/algebra/eval.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/parallel.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

std::shared_ptr<const ColumnTable> ColumnTableCache::get(const Table& table) {
  auto it = cache_.find(&table);
  if (it != cache_.end() && it->second.rows == table.row_count()) {
    return it->second.data;
  }
  auto data =
      std::make_shared<const ColumnTable>(ColumnTable::from_table(table));
  cache_[&table] = {table.row_count(), data};
  return data;
}

namespace {

/// A batch-operator result: shared columnar data viewed through a
/// selection vector of physical row ids (order-significant) and a
/// logical-to-physical column map. Scan/select/project never copy cell
/// data; join and aggregate compact into fresh ColumnTables.
struct VecRel {
  std::shared_ptr<const ColumnTable> data;
  bool identity = false;           // all physical rows, in order
  std::vector<std::uint32_t> sel;  // used when !identity
  std::vector<std::size_t> cols;   // logical col -> physical col
  Schema schema;                   // logical schema of this result
  double blocking_factor = 10.0;

  std::size_t active_rows() const {
    return identity ? data->row_count() : sel.size();
  }
  /// Same accounting as Table::blocks() over the active row count.
  double blocks() const {
    const std::size_t n = active_rows();
    if (n == 0) return 0;
    return std::max(1.0,
                    std::ceil(static_cast<double>(n) / blocking_factor));
  }
  std::uint32_t physical(std::size_t i) const {
    return identity ? static_cast<std::uint32_t>(i) : sel[i];
  }
};

/// A result viewing every row of `data` under `schema`, in order.
VecRel identity_rel(std::shared_ptr<const ColumnTable> data, Schema schema,
                    double blocking_factor) {
  VecRel r;
  r.data = std::move(data);
  r.identity = true;
  r.cols.resize(schema.size());
  std::iota(r.cols.begin(), r.cols.end(), std::size_t{0});
  r.schema = std::move(schema);
  r.blocking_factor = blocking_factor;
  return r;
}

// ---- Morsel workers ---------------------------------------------------

std::atomic<int> g_active_workers{0};

/// Scope probe for a morsel worker's stint inside a parallel region:
/// records a per-thread busy span, samples the active-worker counter (the
/// morsel pool's occupancy) on entry/exit, and adds the stint's wall time
/// to the busy counter. Free when tracing is off.
class WorkerProbe {
 public:
  explicit WorkerProbe(const char* what) : span_("exec.vec.worker", what) {
    timed_ = counters_enabled();
    if (timed_) t0_ = Tracer::now_us();
    if (span_.active()) {
      const int n = g_active_workers.fetch_add(1, std::memory_order_relaxed);
      Tracer::global().counter("exec/vec/active_workers",
                               static_cast<double>(n + 1));
    }
  }
  WorkerProbe(const WorkerProbe&) = delete;
  WorkerProbe& operator=(const WorkerProbe&) = delete;
  ~WorkerProbe() {
    if (span_.active()) {
      const int n = g_active_workers.fetch_sub(1, std::memory_order_relaxed);
      Tracer::global().counter("exec/vec/active_workers",
                               static_cast<double>(n - 1));
    }
    if (timed_) {
      MetricsRegistry::global().counter("exec/vec/busy_us")
          .add(Tracer::now_us() - t0_);
    }
  }

 private:
  TraceSpan span_;
  bool timed_ = false;
  double t0_ = 0;
};

// ---- Packed fixed-width keys ------------------------------------------

/// A join/group key of up to two columns packed into two words. Numeric
/// columns contribute their double bit pattern (so int64 1 and double 1.0
/// key equal, as in Value::operator== and the packed string keys), bools
/// one 0/1 word.
struct PackedKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const PackedKey&) const = default;
};

/// Raw double bit pattern — the aggregation key encoding (identical
/// grouping to exec_internal.hpp's append_packed_f64, -0.0 and NaN bits
/// included).
std::uint64_t key_bits_raw(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Join-key bit pattern: -0.0 folds onto +0.0 so bit equality matches
/// numeric equality. NaN keys are the caller's problem (the exact join
/// key skips NaN rows entirely — NaN joins nothing under numeric
/// equality).
std::uint64_t key_bits_join(double v) {
  if (v == 0.0) v = 0.0;
  return key_bits_raw(v);
}

std::size_t hash_packed_key(const PackedKey& k) {
  const auto mix = [](std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return static_cast<std::size_t>(mix(k.a ^ mix(k.b)));
}

/// One bound column read row by row as a number: int64 and double cells
/// as double, a bool column as a 0/1 key word, and no column at all
/// (SIZE_MAX, COUNT(*)) as the constant 1. Other kinds read 0 — only
/// COUNT(col) binds them, and it never reads the value.
struct NumCol {
  const std::int64_t* i = nullptr;
  const double* f = nullptr;
  const std::uint8_t* b = nullptr;
  double constant = 0;

  double at(std::uint32_t r) const {
    if (i != nullptr) return static_cast<double>(i[r]);
    if (f != nullptr) return f[r];
    return constant;
  }
  /// The group-key word: the raw bits of at(r), or the bool.
  std::uint64_t bits(std::uint32_t r) const {
    if (b != nullptr) return b[r] != 0 ? 1 : 0;
    return key_bits_raw(at(r));
  }
};

NumCol bind_num_col(const ColumnTable& d, std::size_t c) {
  NumCol nc;
  if (c == SIZE_MAX) {
    nc.constant = 1;
  } else if (d.kind(c) == ColumnKind::kInt64Col) {
    nc.i = d.i64(c).data();
  } else if (d.kind(c) == ColumnKind::kDoubleCol) {
    nc.f = d.f64(c).data();
  } else if (d.kind(c) == ColumnKind::kBoolCol) {
    nc.b = d.b8(c).data();
  }
  return nc;
}

// ---- Join --------------------------------------------------------------

/// Matched (probe, build) physical row pairs, probe-morsel-major.
struct JoinPairs {
  std::vector<std::uint32_t> probe_rows;
  std::vector<std::uint32_t> build_rows;
};

/// Open-addressing multimap from PackedKey to build-row chains. Rows with
/// equal keys chain in insertion order, so a probe emits matches in
/// active-row order.
class JoinKeyMap {
 public:
  explicit JoinKeyMap(std::size_t expected_rows) {
    std::size_t cap = 16;
    while (cap < expected_rows * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    entries_.reserve(expected_rows);
  }

  void insert(const PackedKey& key, std::uint32_t row) {
    std::size_t i = hash_packed_key(key) & (slots_.size() - 1);
    while (slots_[i].head >= 0 && !(slots_[i].key == key)) {
      i = (i + 1) & (slots_.size() - 1);
    }
    Slot& s = slots_[i];
    const auto e = static_cast<std::int32_t>(entries_.size());
    entries_.push_back({row, -1});
    if (s.head < 0) {
      s.key = key;
      s.head = e;
    } else {
      entries_[static_cast<std::size_t>(s.tail)].next = e;
    }
    s.tail = e;
  }

  /// Head entry index for `key`, or -1. Walk with entry().
  std::int32_t find(const PackedKey& key) const {
    std::size_t i = hash_packed_key(key) & (slots_.size() - 1);
    while (slots_[i].head >= 0) {
      if (slots_[i].key == key) return slots_[i].head;
      i = (i + 1) & (slots_.size() - 1);
    }
    return -1;
  }

  struct Entry {
    std::uint32_t row;
    std::int32_t next;
  };
  const Entry& entry(std::int32_t i) const {
    return entries_[static_cast<std::size_t>(i)];
  }

 private:
  struct Slot {
    PackedKey key;
    std::int32_t head = -1;  // -1: empty slot
    std::int32_t tail = -1;
  };
  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
};

bool numeric_kind(ColumnKind k) {
  return k == ColumnKind::kInt64Col || k == ColumnKind::kDoubleCol;
}

/// One or two key columns, numeric on both sides: the shapes the exact
/// PackedKey join key covers.
bool exact_join_keys(const ColumnTable& build,
                     const std::vector<std::size_t>& build_keys,
                     const ColumnTable& probe,
                     const std::vector<std::size_t>& probe_keys) {
  if (build_keys.empty() || build_keys.size() > 2) return false;
  for (std::size_t k = 0; k < build_keys.size(); ++k) {
    if (!numeric_kind(build.kind(build_keys[k])) ||
        !numeric_kind(probe.kind(probe_keys[k]))) {
      return false;
    }
  }
  return true;
}

/// Exact join key of one side's numeric key columns: the values' double
/// bits. False for a NaN cell, whose row joins nothing (the row engine's
/// equality fails for NaN).
struct ExactJoinKey {
  NumCol cols[2];
  std::size_t nk = 0;

  ExactJoinKey(const ColumnTable& d, const std::vector<std::size_t>& keys)
      : nk(keys.size()) {
    for (std::size_t k = 0; k < nk; ++k) cols[k] = bind_num_col(d, keys[k]);
  }
  bool operator()(std::uint32_t r, PackedKey& out) const {
    const double v0 = cols[0].at(r);
    if (v0 != v0) return false;
    out.a = key_bits_join(v0);
    out.b = 0;
    if (nk == 2) {
      const double v1 = cols[1].at(r);
      if (v1 != v1) return false;
      out.b = key_bits_join(v1);
    }
    return true;
  }
};

/// Any other key set: the 64-bit column hash, equality re-checked per
/// candidate. Numerics hash through double so int and double keys that
/// compare equal also hash equal (same rule as Value::hash).
struct HashJoinKey {
  const ColumnTable* data;
  const std::vector<std::size_t>* keys;

  bool operator()(std::uint32_t r, PackedKey& out) const {
    std::size_t seed = 0x51ed5eedULL;
    for (const std::size_t c : *keys) {
      std::size_t h = 0;
      switch (data->kind(c)) {
        case ColumnKind::kInt64Col:
          hash_combine(h, static_cast<double>(data->i64(c)[r]));
          break;
        case ColumnKind::kDoubleCol:
          hash_combine(h, data->f64(c)[r]);
          break;
        case ColumnKind::kStringCol:
          hash_combine(h, data->str(c)[r]);
          break;
        case ColumnKind::kBoolCol:
          hash_combine(h, data->b8(c)[r] != 0);
          break;
      }
      seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    out = {seed, 0};
    return true;
  }
};

bool numeric_cell(const ColumnTable& data, std::size_t col, std::uint32_t row,
                  double& out) {
  switch (data.kind(col)) {
    case ColumnKind::kInt64Col:
      out = static_cast<double>(data.i64(col)[row]);
      return true;
    case ColumnKind::kDoubleCol:
      out = data.f64(col)[row];
      return true;
    default:
      return false;
  }
}

/// Equality with Value::operator== semantics: numerics compare as double
/// across int/double kinds, other kinds must match exactly.
bool column_keys_equal(const ColumnTable& a, const std::vector<std::size_t>& ak,
                       std::uint32_t ar, const ColumnTable& b,
                       const std::vector<std::size_t>& bk, std::uint32_t br) {
  for (std::size_t k = 0; k < ak.size(); ++k) {
    double x = 0, y = 0;
    if (numeric_cell(a, ak[k], ar, x)) {
      if (!numeric_cell(b, bk[k], br, y) || x != y) return false;
      continue;
    }
    if (a.kind(ak[k]) != b.kind(bk[k])) return false;
    switch (a.kind(ak[k])) {
      case ColumnKind::kStringCol:
        if (a.str(ak[k])[ar] != b.str(bk[k])[br]) return false;
        break;
      case ColumnKind::kBoolCol:
        if (a.b8(ak[k])[ar] != b.b8(bk[k])[br]) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

// ---- Aggregate ---------------------------------------------------------

/// Open-addressing map from PackedKey to a dense group index, growing as
/// groups appear.
class GroupKeyMap {
 public:
  GroupKeyMap() { slots_.assign(64, Slot{}); }

  /// Index of `key`'s group, inserting `next_group` when unseen.
  std::size_t find_or_insert(const PackedKey& key, std::size_t next_group) {
    if ((used_ + 1) * 4 >= slots_.size() * 3) grow();
    std::size_t i = hash_packed_key(key) & (slots_.size() - 1);
    while (slots_[i].group >= 0) {
      if (slots_[i].key == key) return static_cast<std::size_t>(slots_[i].group);
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i].key = key;
    slots_[i].group = static_cast<std::int32_t>(next_group);
    ++used_;
    return next_group;
  }

 private:
  struct Slot {
    PackedKey key;
    std::int32_t group = -1;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.group < 0) continue;
      std::size_t i = hash_packed_key(s.key) & (slots_.size() - 1);
      while (slots_[i].group >= 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// The same interface over packed string keys.
struct StringKeyMap {
  std::unordered_map<std::string, std::size_t> map;
  std::size_t find_or_insert(const std::string& key, std::size_t next_group) {
    return map.try_emplace(key, next_group).first->second;
  }
};

/// Group table of one hash aggregation: dense group ids in first-seen
/// order, each group's first physical row (its key values are read back
/// from there) and `width` aggregate states per group, group-major.
template <typename Key, typename Index, typename State>
struct GroupTable {
  Index index;
  std::vector<Key> keys;
  std::vector<std::uint32_t> first_row;
  std::vector<State> states;

  /// Dense id of `key`'s group; an unseen key opens a group at row `r`.
  std::size_t group_of(const Key& key, std::uint32_t r, std::size_t width) {
    const std::size_t next = keys.size();
    const std::size_t g = index.find_or_insert(key, next);
    if (g == next) {
      keys.push_back(key);
      first_row.push_back(r);
      states.resize(states.size() + width);
    }
    return g;
  }
};

/// The packed-key aggregate's reach: at most two group columns, none of
/// them strings, and COUNT/SUM/AVG over numeric (or COUNT-anything)
/// inputs. MIN/MAX, SUM_INT and string keys take the Accumulator path.
bool packed_aggregate_ok(const AggregateOp& op, const ColumnTable& data,
                         const std::vector<std::size_t>& group_cols,
                         const std::vector<std::size_t>& agg_cols) {
  if (group_cols.size() > 2) return false;
  for (const std::size_t c : group_cols) {
    if (data.kind(c) == ColumnKind::kStringCol) return false;
  }
  const std::vector<AggSpec>& aggs = op.aggregates();
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggFn fn = aggs[a].fn;
    if (fn != AggFn::kCount && fn != AggFn::kSum && fn != AggFn::kAvg) {
      return false;
    }
    if (fn != AggFn::kCount && agg_cols[a] != SIZE_MAX &&
        !numeric_kind(data.kind(agg_cols[a]))) {
      return false;
    }
  }
  return true;
}

class VectorizedEngine {
 public:
  VectorizedEngine(const Database& db, ExecStats* stats, std::size_t threads,
                   ColumnTableCache& cache)
      : db_(&db), stats_(stats), threads_(threads), cache_(&cache) {}

  Table run(const PlanPtr& plan) {
    MVD_ASSERT(plan != nullptr);
    Table out = sink(node(plan));
    if (counters_enabled() && stats_ != nullptr) {
      publish_op_tallies("vec", op_blocks_, op_rows_);
    }
    return out;
  }

 private:
  const VecRel& node(const PlanPtr& plan) {
    if (auto it = memo_.find(plan.get()); it != memo_.end()) {
      return it->second;
    }
    // Children first, so the operator's span and per-op tallies cover its
    // own work only.
    std::vector<const VecRel*> in;
    in.reserve(plan->children().size());
    for (const PlanPtr& c : plan->children()) in.push_back(&node(c));

    const double blocks0 = stats_ != nullptr ? stats_->blocks_read : 0;
    const double rows0 = stats_ != nullptr ? stats_->rows_scanned : 0;
    const double batches0 = stats_ != nullptr ? stats_->batches : 0;
    TraceSpan span("exec.vec", kExecOpNames[static_cast<std::size_t>(
                                   plan->kind())]);
    VecRel result;
    switch (plan->kind()) {
      case OpKind::kScan:
        result = scan(static_cast<const ScanOp&>(*plan));
        break;
      case OpKind::kSelect:
        result = select(static_cast<const SelectOp&>(*plan), *in[0]);
        break;
      case OpKind::kProject:
        result = project(static_cast<const ProjectOp&>(*plan), *in[0]);
        break;
      case OpKind::kJoin:
        result = join(static_cast<const JoinOp&>(*plan), *in[0], *in[1]);
        break;
      case OpKind::kAggregate:
        result = aggregate(static_cast<const AggregateOp&>(*plan), *in[0]);
        break;
    }
    if (stats_ != nullptr) {
      stats_->rows_out[plan->label()] =
          static_cast<double>(result.active_rows());
      const auto k = static_cast<std::size_t>(plan->kind());
      op_blocks_[k] += stats_->blocks_read - blocks0;
      op_rows_[k] += stats_->rows_scanned - rows0;
    }
    if (span.active()) {
      span.arg("label", plan->label());
      span.arg("rows_out", static_cast<double>(result.active_rows()));
      if (stats_ != nullptr) {
        span.arg("blocks_read", stats_->blocks_read - blocks0);
        span.arg("rows_scanned", stats_->rows_scanned - rows0);
        span.arg("morsels", stats_->batches - batches0);
      }
    }
    return memo_.emplace(plan.get(), std::move(result)).first->second;
  }

  /// Charge one operator input of `rows` active rows: its blocks, its
  /// rows and its morsels.
  void charge_input(const VecRel& in) {
    if (stats_ == nullptr) return;
    stats_->blocks_read += in.blocks();
    stats_->rows_scanned += static_cast<double>(in.active_rows());
    stats_->batches += static_cast<double>(morsel_count(in.active_rows()));
  }

  VecRel scan(const ScanOp& op) {
    const Table& src = db_->table(op.relation());
    if (src.schema().size() != op.output_schema().size()) {
      throw ExecError("stored table '" + op.relation() +
                      "' does not match the scan schema");
    }
    // Rebinding to the plan's (qualified) schema is free: only the
    // logical schema changes, the arrays are shared.
    VecRel r = identity_rel(cache_->get(src), op.output_schema(),
                            src.blocking_factor());
    for (std::size_t c = 0; c < src.schema().size(); ++c) {
      if (column_kind(op.output_schema().at(c).type) != r.data->kind(c)) {
        throw ExecError("stored table '" + op.relation() +
                        "' does not match the scan schema");
      }
    }
    charge_input(r);
    return r;
  }

  /// Morsel-parallel filter of `in`'s active rows. An identity input
  /// filters its first conjunct straight over each morsel's dense row
  /// range. Each shard appends its survivors to one buffer; shards own
  /// contiguous morsel ranges in shard order, so concatenating the shard
  /// buffers reproduces morsel order and the result is independent of the
  /// thread count.
  std::vector<std::uint32_t> filter_rows(const VecRel& in,
                                         const CompiledExpr& pred) {
    const std::size_t n = in.active_rows();
    const std::size_t morsels = morsel_count(n);
    if (morsels == 0) return {};
    std::vector<std::vector<std::uint32_t>> parts(morsels);
    parallel_shards(
        morsels, threads_, [&](std::size_t t, std::size_t mb, std::size_t me) {
          WorkerProbe wp("filter");
          std::vector<std::uint32_t>& mine = parts[t];
          std::vector<std::uint32_t> buf(kMorselRows);
          for (std::size_t m = mb; m < me; ++m) {
            const std::size_t lo = m * kMorselRows;
            const std::size_t hi = std::min(n, lo + kMorselRows);
            const std::size_t kept =
                in.identity
                    ? pred.filter_range(*in.data, in.cols,
                                        static_cast<std::uint32_t>(lo),
                                        static_cast<std::uint32_t>(hi),
                                        buf.data())
                    : pred.filter_batch(*in.data, in.cols,
                                        in.sel.data() + lo, hi - lo,
                                        buf.data());
            mine.insert(mine.end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(kept));
          }
        });
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    if (parts[0].size() == total) return std::move(parts[0]);
    std::vector<std::uint32_t> sel;
    sel.reserve(total);
    for (const auto& p : parts) sel.insert(sel.end(), p.begin(), p.end());
    return sel;
  }

  VecRel select(const SelectOp& op, const VecRel& in) {
    const CompiledExpr pred(op.predicate(), in.schema);
    VecRel r;
    r.data = in.data;
    r.identity = false;
    r.sel = filter_rows(in, pred);
    r.cols = in.cols;
    r.schema = in.schema;
    r.blocking_factor = in.blocking_factor;
    charge_input(in);
    return r;
  }

  VecRel project(const ProjectOp& op, const VecRel& in) {
    // Pure column remap: no data movement, no row movement.
    VecRel r;
    r.data = in.data;
    r.identity = in.identity;
    r.sel = in.sel;
    r.schema = op.output_schema();
    r.blocking_factor = in.blocking_factor;
    r.cols.reserve(op.columns().size());
    for (const std::string& c : op.columns()) {
      r.cols.push_back(in.cols[in.schema.index_of(c)]);
    }
    return r;
  }

  /// Compact matched (left, right) physical row pairs into a fresh
  /// ColumnTable under the join's output schema, gathering column by
  /// column (columns are independent, so the gather parallelizes without
  /// affecting the output).
  VecRel gather_join(const JoinOp& op, const VecRel& left, const VecRel& right,
                     const std::vector<std::uint32_t>& lrows,
                     const std::vector<std::uint32_t>& rrows) {
    auto data = std::make_shared<ColumnTable>(op.output_schema(),
                                              left.blocking_factor);
    const std::size_t nl = left.schema.size();
    const std::size_t total_cols = nl + right.schema.size();
    parallel_for_each_index(total_cols, threads_, [&](std::size_t c) {
      WorkerProbe wp("join-gather");
      if (c < nl) {
        data->append_gather(c, *left.data, left.cols[c], lrows.data(),
                            lrows.size());
      } else {
        data->append_gather(c, *right.data, right.cols[c - nl], rrows.data(),
                            rrows.size());
      }
    });
    data->set_row_count(lrows.size());
    return identity_rel(std::move(data), op.output_schema(),
                        left.blocking_factor);
  }

  /// Equi-join build/probe over the insertion-ordered chain table: keys
  /// encode morsel-parallel, build rows insert serially in active order
  /// (deterministic per-key chains), and the probe runs morsel-parallel
  /// with matches concatenated in morsel order. `build_key`/`probe_key`
  /// encode a row's key (false: the row joins nothing); `equal` re-checks
  /// a candidate pair when the key is a hash rather than the values.
  template <typename BuildKey, typename ProbeKey, typename Equal>
  JoinPairs build_probe(const VecRel& build, const BuildKey& build_key,
                        const VecRel& probe, const ProbeKey& probe_key,
                        const Equal& equal) {
    const std::size_t nb = build.active_rows();
    std::vector<PackedKey> bkeys(nb);
    std::vector<std::uint8_t> bok(nb);
    parallel_shards(morsel_count(nb), threads_,
                    [&](std::size_t, std::size_t mb, std::size_t me) {
                      WorkerProbe wp("join-build-key");
                      const std::size_t lo = mb * kMorselRows;
                      const std::size_t hi = std::min(nb, me * kMorselRows);
                      for (std::size_t i = lo; i < hi; ++i) {
                        bok[i] = build_key(build.physical(i), bkeys[i]) ? 1 : 0;
                      }
                    });
    JoinKeyMap table(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      if (bok[i] != 0) table.insert(bkeys[i], build.physical(i));
    }

    const std::size_t np = probe.active_rows();
    const std::size_t pm = morsel_count(np);
    std::vector<JoinPairs> chunks(pm);
    parallel_shards(
        pm, threads_, [&](std::size_t, std::size_t mb, std::size_t me) {
          WorkerProbe wp("join-probe");
          PackedKey key;
          for (std::size_t m = mb; m < me; ++m) {
            const std::size_t lo = m * kMorselRows;
            const std::size_t hi = std::min(np, lo + kMorselRows);
            JoinPairs& ch = chunks[m];
            for (std::size_t i = lo; i < hi; ++i) {
              const std::uint32_t pr = probe.physical(i);
              if (!probe_key(pr, key)) continue;
              for (std::int32_t e = table.find(key); e >= 0;
                   e = table.entry(e).next) {
                const std::uint32_t br = table.entry(e).row;
                if (!equal(pr, br)) continue;
                ch.probe_rows.push_back(pr);
                ch.build_rows.push_back(br);
              }
            }
          }
        });
    JoinPairs out;
    std::size_t total = 0;
    for (const JoinPairs& ch : chunks) total += ch.probe_rows.size();
    out.probe_rows.reserve(total);
    out.build_rows.reserve(total);
    for (const JoinPairs& ch : chunks) {
      out.probe_rows.insert(out.probe_rows.end(), ch.probe_rows.begin(),
                            ch.probe_rows.end());
      out.build_rows.insert(out.build_rows.end(), ch.build_rows.begin(),
                            ch.build_rows.end());
    }
    return out;
  }

  VecRel join(const JoinOp& op, const VecRel& left, const VecRel& right) {
    const JoinSplit split =
        split_join_predicate(op, left.schema, right.schema);
    std::vector<std::uint32_t> lrows, rrows;

    if (!split.equi.empty()) {
      // Build on the smaller side, probe with the larger.
      const bool build_right = right.active_rows() <= left.active_rows();
      const VecRel& build = build_right ? right : left;
      const VecRel& probe = build_right ? left : right;
      std::vector<std::size_t> build_keys, probe_keys;  // physical cols
      for (const auto& [li, ri] : split.equi) {
        build_keys.push_back(build_right ? right.cols[ri] : left.cols[li]);
        probe_keys.push_back(build_right ? left.cols[li] : right.cols[ri]);
      }
      // One or two numeric keys key the table by their exact values, so a
      // chain hit needs no re-check; any other key set keys it by hash.
      JoinPairs pairs =
          exact_join_keys(*build.data, build_keys, *probe.data, probe_keys)
              ? build_probe(build, ExactJoinKey(*build.data, build_keys),
                            probe, ExactJoinKey(*probe.data, probe_keys),
                            [](std::uint32_t, std::uint32_t) { return true; })
              : build_probe(
                    build, HashJoinKey{build.data.get(), &build_keys}, probe,
                    HashJoinKey{probe.data.get(), &probe_keys},
                    [&](std::uint32_t pr, std::uint32_t br) {
                      return column_keys_equal(*probe.data, probe_keys, pr,
                                               *build.data, build_keys, br);
                    });
      lrows = build_right ? std::move(pairs.probe_rows)
                          : std::move(pairs.build_rows);
      rrows = build_right ? std::move(pairs.build_rows)
                          : std::move(pairs.probe_rows);
      charge_input(left);
      charge_input(right);
      VecRel out = gather_join(op, left, right, lrows, rrows);
      if (!split.residual.empty()) {
        std::vector<ExprPtr> preds = split.residual;
        const CompiledExpr residual(conj(std::move(preds)), out.schema);
        out.sel = filter_rows(out, residual);
        out.identity = false;
      }
      return out;
    }

    // Nested loop (cross product or theta join): the rare fallback, kept
    // row-at-a-time — it is O(n*m) regardless of layout.
    const Schema joint = op.output_schema();
    const CompiledExpr pred(op.predicate(), joint);
    const std::size_t nl = left.schema.size();
    for (std::size_t i = 0; i < left.active_rows(); ++i) {
      const std::uint32_t lr = left.physical(i);
      Tuple joined(joint.size());
      for (std::size_t c = 0; c < nl; ++c) {
        joined[c] = left.data->value_at(lr, left.cols[c]);
      }
      for (std::size_t j = 0; j < right.active_rows(); ++j) {
        const std::uint32_t rr = right.physical(j);
        for (std::size_t c = 0; c < right.schema.size(); ++c) {
          joined[nl + c] = right.data->value_at(rr, right.cols[c]);
        }
        if (pred.matches(joined)) {
          lrows.push_back(lr);
          rrows.push_back(rr);
        }
      }
    }
    if (stats_ != nullptr) {
      // Outer = the smaller input, matching CostModel::join_op_cost.
      const double outer = std::min(left.blocks(), right.blocks());
      const double inner = std::max(left.blocks(), right.blocks());
      stats_->blocks_read += outer + outer * inner;
      stats_->rows_scanned +=
          static_cast<double>(left.active_rows() + right.active_rows());
      stats_->batches += 1;
    }
    return gather_join(op, left, right, lrows, rrows);
  }

  /// Hash aggregation shared by both group-key encodings: a single pass at
  /// one thread (or one morsel), otherwise per-morsel partials merged in
  /// morsel order — the same partial boundaries and merge order either
  /// way, so group order and floating-point sums do not depend on the
  /// thread count. `key_of(key, row)` encodes a row's group key and
  /// `feed(states, row)` folds the row into its group's `width` states.
  template <typename Key, typename Index, typename State, typename KeyOf,
            typename Feed>
  GroupTable<Key, Index, State> group_rows(const VecRel& in, std::size_t width,
                                           const KeyOf& key_of,
                                           const Feed& feed) {
    using Groups = GroupTable<Key, Index, State>;
    const std::size_t n = in.active_rows();
    const std::size_t morsels = morsel_count(n);
    const auto add_rows = [&](Groups& t, std::size_t lo, std::size_t hi) {
      Key key;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t r = in.physical(i);
        key_of(key, r);
        const std::size_t g = t.group_of(key, r, width);  // may grow states
        feed(t.states.data() + g * width, r);
      }
    };
    Groups global;
    if (threads_ <= 1 || morsels <= 1) {
      add_rows(global, 0, n);
      return global;
    }
    std::vector<Groups> partials(morsels);
    parallel_shards(
        morsels, threads_, [&](std::size_t, std::size_t mb, std::size_t me) {
          WorkerProbe wp("aggregate-partial");
          for (std::size_t m = mb; m < me; ++m) {
            add_rows(partials[m], m * kMorselRows,
                     std::min(n, (m + 1) * kMorselRows));
          }
        });
    for (const Groups& p : partials) {
      for (std::size_t g = 0; g < p.keys.size(); ++g) {
        const std::size_t gi = global.group_of(p.keys[g], p.first_row[g], width);
        for (std::size_t a = 0; a < width; ++a) {
          global.states[gi * width + a].merge(p.states[g * width + a]);
        }
      }
    }
    return global;
  }

  /// One output row per group: key values read back from the group's
  /// first row, then each aggregate's result.
  template <typename Groups>
  VecRel emit_groups(const AggregateOp& op, const VecRel& in,
                     const std::vector<std::size_t>& group_cols,
                     const Groups& groups) {
    using State = typename decltype(groups.states)::value_type;
    const std::size_t width = op.aggregates().size();
    const std::size_t ngc = group_cols.size();
    // SQL semantics: a global aggregate over an empty input yields one
    // row.
    const bool empty_global = groups.keys.empty() && op.group_by().empty();
    const std::size_t ngroups = empty_global ? 1 : groups.keys.size();
    const Schema& os = op.output_schema();
    auto out = std::make_shared<ColumnTable>(os, in.blocking_factor);
    const State empty{};
    for (std::size_t g = 0; g < ngroups; ++g) {
      for (std::size_t k = 0; k < ngc; ++k) {
        out->append_value(
            k, in.data->value_at(groups.first_row[g], group_cols[k]));
      }
      for (std::size_t a = 0; a < width; ++a) {
        const State& s = empty_global ? empty : groups.states[g * width + a];
        out->append_value(ngc + a, s.result(op.aggregates()[a].fn,
                                            os.at(ngc + a).type));
      }
    }
    out->set_row_count(ngroups);
    return identity_rel(std::move(out), os, in.blocking_factor);
  }

  VecRel aggregate(const AggregateOp& op, const VecRel& in) {
    std::vector<std::size_t> group_cols;
    for (const std::string& g : op.group_by()) {
      group_cols.push_back(in.cols[in.schema.index_of(g)]);
    }
    std::vector<std::size_t> agg_cols;  // SIZE_MAX for COUNT(*)
    for (const AggSpec& a : op.aggregates()) {
      agg_cols.push_back(a.column.empty()
                             ? SIZE_MAX
                             : in.cols[in.schema.index_of(a.column)]);
    }
    const ColumnTable& data = *in.data;
    const std::size_t width = agg_cols.size();
    if (stats_ != nullptr) {
      stats_->rows_scanned += static_cast<double>(in.active_rows());
      stats_->batches += static_cast<double>(morsel_count(in.active_rows()));
    }

    if (packed_aggregate_ok(op, data, group_cols, agg_cols)) {
      // Packed two-word key of raw double bits (int64/double/bool group
      // columns; -0.0 and 0.0 group apart, exactly as the string key's
      // bit patterns do) with COUNT/SUM pairs.
      NumCol keys[2];
      for (std::size_t k = 0; k < group_cols.size(); ++k) {
        keys[k] = bind_num_col(data, group_cols[k]);
      }
      std::vector<NumCol> inputs;
      for (const std::size_t c : agg_cols) {
        inputs.push_back(bind_num_col(data, c));
      }
      const std::size_t ngc = group_cols.size();
      return emit_groups(
          op, in, group_cols,
          group_rows<PackedKey, GroupKeyMap, SumCount>(
              in, width,
              [&](PackedKey& key, std::uint32_t r) {
                key = {ngc > 0 ? keys[0].bits(r) : 0,
                       ngc > 1 ? keys[1].bits(r) : 0};
              },
              [&](SumCount* s, std::uint32_t r) {
                for (std::size_t a = 0; a < width; ++a) {
                  s[a].count += 1;
                  s[a].sum += inputs[a].at(r);
                }
              }));
    }

    return emit_groups(
        op, in, group_cols,
        group_rows<std::string, StringKeyMap, Accumulator>(
            in, width,
            [&](std::string& key, std::uint32_t r) {
              key.clear();
              for (const std::size_t c : group_cols) {
                switch (data.kind(c)) {
                  case ColumnKind::kInt64Col:
                    append_packed_f64(key, static_cast<double>(data.i64(c)[r]));
                    break;
                  case ColumnKind::kDoubleCol:
                    append_packed_f64(key, data.f64(c)[r]);
                    break;
                  case ColumnKind::kStringCol:
                    append_packed_str(key, data.str(c)[r]);
                    break;
                  case ColumnKind::kBoolCol:
                    append_packed_bool(key, data.b8(c)[r] != 0);
                    break;
                }
              }
            },
            [&](Accumulator* s, std::uint32_t r) {
              for (std::size_t a = 0; a < width; ++a) {
                s[a].feed(agg_cols[a] == SIZE_MAX
                              ? Value::int64(1)
                              : data.value_at(r, agg_cols[a]));
              }
            }));
  }

  /// The only tuple materialization in the engine: the final sink.
  Table sink(const VecRel& r) {
    Table out(r.schema, r.blocking_factor);
    const std::size_t n = r.active_rows();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pr = r.physical(i);
      Tuple t;
      t.reserve(r.cols.size());
      for (const std::size_t c : r.cols) {
        t.push_back(r.data->value_at(pr, c));
      }
      out.append(std::move(t));
    }
    return out;
  }

  const Database* db_;
  ExecStats* stats_;
  std::size_t threads_;
  ColumnTableCache* cache_;
  std::map<const LogicalOp*, VecRel> memo_;
  /// Per-operator work tallies (indexed by OpKind), flushed once at the
  /// end of run() under the same names as the row engine.
  double op_blocks_[kExecOpKinds] = {};
  double op_rows_[kExecOpKinds] = {};
};

}  // namespace

Table run_vectorized(const Database& db, const PlanPtr& plan, ExecStats* stats,
                     std::size_t threads, ColumnTableCache& cache) {
  VectorizedEngine engine(db, stats, threads, cache);
  return engine.run(plan);
}

}  // namespace mvd
