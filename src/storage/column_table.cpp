#include "src/storage/column_table.hpp"

#include <algorithm>
#include <cmath>

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
  for (std::size_t c = 0; c < out.columns_.size(); ++c) out.fill(c, table);
  return out;
}

ColumnTable ColumnTable::unfilled(const Table& table) {
  ColumnTable out(table.schema(), table.blocking_factor(), ColumnSet{});
  out.row_count_ = table.row_count();
  return out;
}

void ColumnTable::fill(std::size_t col, const Table& table) {
  Column& c = columns_[col];
  MVD_ASSERT(!c.filled && table.row_count() == row_count_);
  const std::vector<Tuple>& rows = table.rows();
  switch (c.kind) {
    case ColumnKind::kInt64Col:
      c.i64.reserve(rows.size());
      for (const Tuple& t : rows) c.i64.push_back(t[col].as_int64());
      break;
    case ColumnKind::kDoubleCol:
      c.f64.reserve(rows.size());
      for (const Tuple& t : rows) c.f64.push_back(t[col].as_double());
      break;
    case ColumnKind::kStringCol:
      c.str.reserve(rows.size());
      for (const Tuple& t : rows) c.str.push_back(t[col].as_string());
      break;
    case ColumnKind::kBoolCol:
      c.b8.reserve(rows.size());
      for (const Tuple& t : rows) c.b8.push_back(t[col].as_bool() ? 1 : 0);
      break;
  }
  c.filled = true;
}

Table ColumnTable::to_table() const {
  Table out(schema_, blocking_factor_);
  for (std::size_t r = 0; r < row_count_; ++r) {
    Tuple t;
    t.reserve(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      t.push_back(value_at(r, c));
    }
    out.append(std::move(t));
  }
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
