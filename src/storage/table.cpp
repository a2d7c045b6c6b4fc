#include "src/storage/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/text_table.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/storage/column_table.hpp"

namespace mvd {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t numeric_bits(const Value& v) {
  double d = v.as_double();
  if (d == 0) d = 0;  // collapse -0.0
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

bool values_equivalent(const Value& a, const Value& b) {
  if (is_numeric(a.type()) && is_numeric(b.type())) {
    return numeric_bits(a) == numeric_bits(b);
  }
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kString) return a.as_string() == b.as_string();
  return a.as_bool() == b.as_bool();
}

}  // namespace

std::uint64_t tuple_hash(const Tuple& t) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Value& v : t) {
    switch (v.type()) {
      case ValueType::kInt64:
      case ValueType::kDate:
      case ValueType::kDouble:
        h = mix(h, numeric_bits(v));
        break;
      case ValueType::kString:
        h = mix(h, std::hash<std::string>{}(v.as_string()));
        break;
      case ValueType::kBool:
        h = mix(h, v.as_bool() ? 2 : 3);
        break;
    }
  }
  return h;
}

bool tuples_equivalent(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!values_equivalent(a[i], b[i])) return false;
  }
  return true;
}

Table::Table(Schema schema, double blocking_factor)
    : schema_(std::move(schema)), blocking_factor_(blocking_factor) {
  MVD_ASSERT(blocking_factor_ > 0);
}

namespace {
bool type_compatible(ValueType declared, ValueType actual) {
  if (declared == actual) return true;
  // Dates are stored as int64 day counts; accept either tag.
  return (declared == ValueType::kDate && actual == ValueType::kInt64) ||
         (declared == ValueType::kInt64 && actual == ValueType::kDate);
}
}  // namespace

void Table::append(Tuple tuple) {
  if (tuple.size() != schema_.size()) {
    throw ExecError("tuple arity " + std::to_string(tuple.size()) +
                    " does not match schema arity " +
                    std::to_string(schema_.size()));
  }
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (!type_compatible(schema_.at(i).type, tuple[i].type())) {
      throw ExecError("type mismatch for " + schema_.at(i).qualified() +
                      ": declared " + to_string(schema_.at(i).type) +
                      ", got " + to_string(tuple[i].type()));
    }
  }
  push(std::move(tuple));
}

void Table::push(Tuple tuple) {
  drop_columnar();
  RowHandle row = std::make_shared<const Tuple>(std::move(tuple));
  if (keeps_hashes_) hashes_.push_back(tuple_hash(*row));
  rows_.push_back(std::move(row));
}

void Table::append_shared(const Table& src, std::size_t i) {
  MVD_ASSERT_MSG(i < src.rows_.size(), "row " << i << " out of range");
  const RowHandle& row = src.rows_[i];
  MVD_ASSERT(row->size() == schema_.size());
  drop_columnar();
  if (keeps_hashes_) {
    hashes_.push_back(src.keeps_hashes_ ? src.hashes_[i] : tuple_hash(*row));
  }
  rows_.push_back(row);
}

void Table::check_rebind(const Schema& schema, const Schema& stored) {
  if (schema.size() != stored.size()) {
    throw ExecError("cannot rebind: schema arity " +
                    std::to_string(schema.size()) +
                    " does not match source arity " +
                    std::to_string(stored.size()));
  }
  for (std::size_t i = 0; i < schema.size(); ++i) {
    // Declared-type compatibility transfers to the stored values: the
    // source already enforced compatibility against its own declaration.
    if (!type_compatible(schema.at(i).type, stored.at(i).type)) {
      throw ExecError("cannot rebind " + schema.at(i).qualified() +
                      ": declared " + to_string(schema.at(i).type) +
                      ", stored column is " + to_string(stored.at(i).type));
    }
  }
}

Table Table::rebind(Schema schema, const Table& src, std::size_t begin,
                    std::size_t end) {
  check_rebind(schema, src.schema());
  end = std::min(end, src.rows_.size());
  MVD_ASSERT(begin <= end);
  Table out(std::move(schema), src.blocking_factor());
  out.rows_.assign(src.rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                   src.rows_.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

const Tuple& Table::row(std::size_t i) const {
  MVD_ASSERT_MSG(i < rows_.size(), "row " << i << " out of range");
  return *rows_[i];
}

RowRange Table::rows(std::size_t begin, std::size_t end) const {
  MVD_ASSERT(begin <= end && end <= rows_.size());
  return {rows_.data() + begin, rows_.data() + end};
}

void Table::update_row(std::size_t i, Tuple tuple) {
  MVD_ASSERT_MSG(i < rows_.size(), "row " << i << " out of range");
  append(std::move(tuple));  // reuse the arity/type checks
  remove_row(i);              // the new last row takes row i's place
}

void Table::remove_row(std::size_t i) {
  MVD_ASSERT_MSG(i < rows_.size(), "row " << i << " out of range");
  drop_columnar();
  rows_[i] = std::move(rows_.back());
  rows_.pop_back();
  if (keeps_hashes_) {
    hashes_[i] = hashes_.back();
    hashes_.pop_back();
  }
}

void Table::permute(const std::vector<std::size_t>& order) {
  MVD_ASSERT(order.size() == rows_.size());
  drop_columnar();
  std::vector<RowHandle> next;
  next.reserve(order.size());
  for (const std::size_t i : order) next.push_back(std::move(rows_[i]));
  rows_ = std::move(next);
  if (keeps_hashes_) {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(order.size());
    for (const std::size_t i : order) hashes.push_back(hashes_[i]);
    hashes_ = std::move(hashes);
  }
}

void Table::keep_hashes() {
  if (keeps_hashes_) return;
  hashes_.reserve(rows_.size());
  for (const RowHandle& t : rows_) hashes_.push_back(tuple_hash(*t));
  keeps_hashes_ = true;
}

std::shared_ptr<const ColumnTable> Table::columnar(
    const ColumnSet& need) const {
  std::size_t converted = 0;
  std::shared_ptr<const ColumnTable> out;
  {
    const std::lock_guard<std::mutex> lock(columnar_.mutex);
    std::shared_ptr<ColumnTable>& form = columnar_.form;
    if (form == nullptr) {
      form = std::make_shared<ColumnTable>(ColumnTable::unfilled(*this));
    }
    std::vector<std::size_t> missing;
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      if (need.contains(c) && !form->filled(c)) missing.push_back(c);
    }
    converted = missing.size();
    if (converted > 0) {
      TraceSpan span("storage", "columnar");
      form->fill(missing, *this);
      if (span.active()) {
        span.arg("columns", static_cast<double>(converted));
        span.arg("cells", static_cast<double>(converted * rows_.size()));
      }
    }
    out = form;
  }
  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("storage/columnar/scans").increment();
    if (converted == 0) {
      reg.counter("storage/columnar/warm_scans").increment();
    } else {
      reg.counter("storage/columnar/columns_converted")
          .add(static_cast<double>(converted));
      reg.counter("storage/columnar/cells_converted")
          .add(static_cast<double>(converted * rows_.size()));
    }
  }
  return out;
}

double Table::blocks_of(std::size_t rows, double blocking_factor) {
  if (rows == 0) return 0;
  return std::max(1.0, std::ceil(static_cast<double>(rows) / blocking_factor));
}

RelationStats Table::compute_stats() const {
  RelationStats stats;
  stats.rows = static_cast<double>(rows_.size());
  stats.blocks = blocks();
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    const Attribute& attr = schema_.at(c);
    ColumnStats cs;
    std::unordered_set<Value> distinct;
    bool any_numeric = false;
    double lo = 0, hi = 0;
    for (const Tuple& t : rows()) {
      distinct.insert(t[c]);
      if (is_numeric(t[c].type())) {
        const double x = t[c].as_double();
        if (!any_numeric) {
          lo = hi = x;
          any_numeric = true;
        } else {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
      }
    }
    if (!rows_.empty()) cs.distinct = static_cast<double>(distinct.size());
    if (any_numeric) {
      cs.min_value = lo;
      cs.max_value = hi;
    }
    stats.columns[attr.name] = cs;
  }
  return stats;
}

std::string Table::preview(std::size_t limit) const {
  std::vector<std::string> headers;
  headers.reserve(schema_.size());
  for (const Attribute& a : schema_.attributes()) headers.push_back(a.qualified());
  TextTable t(std::move(headers));
  for (std::size_t i = 0; i < rows_.size() && i < limit; ++i) {
    std::vector<std::string> cells;
    cells.reserve(rows_[i]->size());
    for (const Value& v : *rows_[i]) cells.push_back(v.to_string());
    t.add_row(std::move(cells));
  }
  std::string out = t.render();
  if (rows_.size() > limit) {
    out += "... (" + std::to_string(rows_.size() - limit) + " more rows)\n";
  }
  return out;
}

}  // namespace mvd
