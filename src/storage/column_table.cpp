#include "src/storage/column_table.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {

ColumnKind column_kind(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return ColumnKind::kInt64Col;
    case ValueType::kDouble:
      return ColumnKind::kDoubleCol;
    case ValueType::kString:
      return ColumnKind::kStringCol;
    case ValueType::kBool:
      return ColumnKind::kBoolCol;
  }
  MVD_ASSERT(false);
  return ColumnKind::kInt64Col;
}

std::size_t ColumnTable::Column::size() const {
  switch (kind) {
    case ColumnKind::kInt64Col: return i64.size();
    case ColumnKind::kDoubleCol: return f64.size();
    case ColumnKind::kStringCol: return str.size();
    case ColumnKind::kBoolCol: return b8.size();
  }
  MVD_ASSERT(false);
  return 0;
}

ColumnTable::ColumnTable(Schema schema, double blocking_factor,
                         const ColumnSet& filled)
    : schema_(std::move(schema)), blocking_factor_(blocking_factor) {
  MVD_ASSERT(blocking_factor_ > 0);
  columns_.resize(schema_.size());
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    columns_[c].kind = column_kind(schema_.at(c).type);
    columns_[c].filled = filled.contains(c);
  }
}

ColumnTable ColumnTable::from_table(const Table& table) {
  ColumnTable out = unfilled(table);
  std::vector<std::size_t> all(out.columns_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  out.fill(all, table);
  return out;
}

ColumnTable ColumnTable::unfilled(const Table& table) {
  ColumnTable out(table.schema(), table.blocking_factor(), ColumnSet{});
  out.row_count_ = table.row_count();
  return out;
}

// A row's cells sit behind two pointers (its handle, then its tuple), so
// one pass resolves every row's cells, with the tuples prefetched ahead,
// and each column then converts in a tight loop over them.
void ColumnTable::fill(const std::vector<std::size_t>& cols,
                       const Table& table) {
  MVD_ASSERT(table.row_count() == row_count_);
  const RowRange rows = table.rows();
  std::vector<const Value*> cells(row_count_);
  constexpr std::size_t kAhead = 16;
  for (std::size_t i = 0; i < row_count_; ++i) {
    if (i + kAhead < row_count_) __builtin_prefetch(&rows[i + kAhead]);
    cells[i] = rows[i].data();
  }
  for (const std::size_t col : cols) {
    Column& c = columns_[col];
    MVD_ASSERT(!c.filled);
    switch (c.kind) {
      case ColumnKind::kInt64Col:
        c.i64.reserve(row_count_);
        for (const Value* t : cells) c.i64.push_back(t[col].as_int64());
        break;
      case ColumnKind::kDoubleCol:
        c.f64.reserve(row_count_);
        for (const Value* t : cells) c.f64.push_back(t[col].as_double());
        break;
      case ColumnKind::kStringCol:
        c.str.reserve(row_count_);
        for (const Value* t : cells) c.str.push_back(t[col].as_string());
        break;
      case ColumnKind::kBoolCol:
        c.b8.reserve(row_count_);
        for (const Value* t : cells) c.b8.push_back(t[col].as_bool() ? 1 : 0);
        break;
    }
    c.filled = true;
  }
}

Table ColumnTable::to_table() const {
  std::vector<std::size_t> cols(columns_.size());
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  std::vector<std::uint32_t> rows(row_count_);
  std::iota(rows.begin(), rows.end(), std::uint32_t{0});
  return to_table(schema_, cols, rows);
}

// A column's kind fixes its cells' types, and schemas that share column
// kinds accept each other's values (kDate and kInt64 share one), so the
// cells go in without Table::append's per-cell check.
//
// Every tuple is built before any is shared, so the cell arrays and the
// row handles come from two runs of allocations instead of alternating
// ones. Alternating, a freed version left the heap so that glibc handed
// its memory back to the OS and the next build faulted it in again: 21k
// page faults per design-workload deploy, against 0.9k this way.
Table ColumnTable::to_table(Schema schema, const std::vector<std::size_t>& cols,
                            std::span<const std::uint32_t> rows) const {
  MVD_ASSERT(cols.size() == schema.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    MVD_ASSERT(cols[i] < columns_.size() && columns_[cols[i]].filled &&
               columns_[cols[i]].kind == column_kind(schema.at(i).type));
  }
  std::vector<Tuple> tuples(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    MVD_ASSERT(rows[i] < row_count_);
    tuples[i].reserve(cols.size());
    for (const std::size_t c : cols) tuples[i].push_back(cell(rows[i], c));
  }
  Table out(std::move(schema), blocking_factor_);
  out.reserve(tuples.size());
  for (Tuple& t : tuples) out.push(std::move(t));
  return out;
}

double ColumnTable::blocks() const {
  if (row_count_ == 0) return 0;
  return std::max(
      1.0, std::ceil(static_cast<double>(row_count_) / blocking_factor_));
}

const std::vector<std::int64_t>& ColumnTable::i64(std::size_t col) const {
  MVD_ASSERT(columns_[col].kind == ColumnKind::kInt64Col &&
             columns_[col].filled);
  return columns_[col].i64;
}

const std::vector<double>& ColumnTable::f64(std::size_t col) const {
  MVD_ASSERT(columns_[col].kind == ColumnKind::kDoubleCol &&
             columns_[col].filled);
  return columns_[col].f64;
}

const std::vector<std::string>& ColumnTable::str(std::size_t col) const {
  MVD_ASSERT(columns_[col].kind == ColumnKind::kStringCol &&
             columns_[col].filled);
  return columns_[col].str;
}

const std::vector<std::uint8_t>& ColumnTable::b8(std::size_t col) const {
  MVD_ASSERT(columns_[col].kind == ColumnKind::kBoolCol &&
             columns_[col].filled);
  return columns_[col].b8;
}

Value ColumnTable::value_at(std::size_t row, std::size_t col) const {
  MVD_ASSERT(row < row_count_ && col < columns_.size() &&
             columns_[col].filled);
  return cell(row, col);
}

Value ColumnTable::cell(std::size_t row, std::size_t col) const {
  const Column& c = columns_[col];
  switch (c.kind) {
    case ColumnKind::kInt64Col:
      return schema_.at(col).type == ValueType::kDate
                 ? Value::date(c.i64[row])
                 : Value::int64(c.i64[row]);
    case ColumnKind::kDoubleCol:
      return Value::real(c.f64[row]);
    case ColumnKind::kStringCol:
      return Value::string(c.str[row]);
    case ColumnKind::kBoolCol:
      return Value::boolean(c.b8[row] != 0);
  }
  MVD_ASSERT(false);
  return Value::int64(0);
}

void ColumnTable::append_row(const Tuple& tuple) {
  if (tuple.size() != schema_.size()) {
    throw ExecError("tuple arity " + std::to_string(tuple.size()) +
                    " does not match schema arity " +
                    std::to_string(schema_.size()));
  }
  for (std::size_t c = 0; c < tuple.size(); ++c) {
    if (column_kind(tuple[c].type()) != columns_[c].kind) {
      throw ExecError("type mismatch for " + schema_.at(c).qualified() +
                      ": declared " + to_string(schema_.at(c).type) + ", got " +
                      to_string(tuple[c].type()));
    }
  }
  for (std::size_t c = 0; c < tuple.size(); ++c) append_value(c, tuple[c]);
  ++row_count_;
}

void ColumnTable::append_value(std::size_t col, const Value& v) {
  Column& c = columns_[col];
  MVD_ASSERT(c.filled);
  switch (c.kind) {
    case ColumnKind::kInt64Col: c.i64.push_back(v.as_int64()); break;
    case ColumnKind::kDoubleCol: c.f64.push_back(v.as_double()); break;
    case ColumnKind::kStringCol: c.str.push_back(v.as_string()); break;
    case ColumnKind::kBoolCol: c.b8.push_back(v.as_bool() ? 1 : 0); break;
  }
}

void ColumnTable::append_gather(std::size_t col, const ColumnTable& from,
                                std::size_t from_col, const std::uint32_t* rows,
                                std::size_t n) {
  Column& dst = columns_[col];
  const Column& src = from.columns_[from_col];
  MVD_ASSERT(dst.kind == src.kind && dst.filled && src.filled);
  switch (dst.kind) {
    case ColumnKind::kInt64Col:
      dst.i64.reserve(dst.i64.size() + n);
      for (std::size_t i = 0; i < n; ++i) dst.i64.push_back(src.i64[rows[i]]);
      break;
    case ColumnKind::kDoubleCol:
      dst.f64.reserve(dst.f64.size() + n);
      for (std::size_t i = 0; i < n; ++i) dst.f64.push_back(src.f64[rows[i]]);
      break;
    case ColumnKind::kStringCol:
      dst.str.reserve(dst.str.size() + n);
      for (std::size_t i = 0; i < n; ++i) dst.str.push_back(src.str[rows[i]]);
      break;
    case ColumnKind::kBoolCol:
      dst.b8.reserve(dst.b8.size() + n);
      for (std::size_t i = 0; i < n; ++i) dst.b8.push_back(src.b8[rows[i]]);
      break;
  }
}

void ColumnTable::set_row_count(std::size_t rows) {
  for (const Column& c : columns_) {
    if (!c.filled) continue;
    MVD_ASSERT_MSG(c.size() == rows, "column holds " << c.size()
                                                     << " cells, expected "
                                                     << rows);
  }
  row_count_ = rows;
}

}  // namespace mvd
