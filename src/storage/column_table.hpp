// Columnar table representation for the vectorized execution engine.
//
// A ColumnTable holds the same logical contents as a row-oriented Table,
// but as one typed array per column (int64/double/string/bool; dates ride
// the int64 array and keep their kDate schema tag). Batch operators read
// the arrays directly through selection vectors instead of materializing
// tuples, and convert back to a Table only at the final sink. Block
// accounting mirrors Table exactly (same blocking factor, same
// ceil(rows / bf) formula) so estimated-vs-actual cost comparisons stay
// meaningful in either engine.
//
// A column may be left unfilled: a Table's kept columnar form
// (Table::columnar) converts only the columns scans read, and a join
// gathers only the columns its readers use. Reading an unfilled column is
// a programming error (asserted).
#pragma once

#include <bitset>
#include <cstdint>
#include <span>
#include <vector>

#include "src/storage/table.hpp"

namespace mvd {

/// A set of column positions, kept inline (no allocation). Positions past
/// kInline cannot be told apart: adding one makes the set hold every
/// column, which over-approximates and so stays correct.
class ColumnSet {
 public:
  static constexpr std::size_t kInline = 256;

  /// Every column.
  static ColumnSet all() {
    ColumnSet s;
    s.all_ = true;
    return s;
  }

  void add(std::size_t col) {
    if (col < kInline) {
      bits_.set(col);
    } else {
      all_ = true;
    }
  }
  bool contains(std::size_t col) const {
    return all_ || (col < kInline && bits_.test(col));
  }
  /// Adds every member of `other`; false when that added nothing.
  bool merge(const ColumnSet& other) {
    if (all_) return false;
    const bool grew = other.all_ || (other.bits_ & ~bits_).any();
    all_ = other.all_;
    bits_ |= other.bits_;
    return grew;
  }

 private:
  std::bitset<kInline> bits_;
  bool all_ = false;
};

/// Physical storage class of a column. kDate shares kInt64Col: both are
/// day counts, matching Table's append compatibility rule.
enum class ColumnKind { kInt64Col, kDoubleCol, kStringCol, kBoolCol };

/// Storage class for a declared value type.
ColumnKind column_kind(ValueType type);

class ColumnTable {
 public:
  /// An empty table whose columns in `filled` are built by appends; the
  /// others stay unfilled.
  explicit ColumnTable(Schema schema, double blocking_factor = 10.0,
                       const ColumnSet& filled = ColumnSet::all());

  /// Columnar copy of every column of `table` (same schema and blocking
  /// factor).
  static ColumnTable from_table(const Table& table);

  /// A form of `table` with its row count and no column filled yet;
  /// fill() converts columns as they are needed.
  static ColumnTable unfilled(const Table& table);

  /// Convert the columns `cols` of `table`, the table this form was made
  /// from (unchanged since), resolving its rows once. Each must be
  /// unfilled.
  void fill(const std::vector<std::size_t>& cols, const Table& table);

  /// Row-oriented copy; every column must be filled.
  Table to_table() const;
  /// The sink conversion: physical rows `rows`, in order, as a row table
  /// under `schema`, whose column i reads column cols[i] (filled, of the
  /// kind schema's column i declares). Cells are not re-checked.
  Table to_table(Schema schema, const std::vector<std::size_t>& cols,
                 std::span<const std::uint32_t> rows) const;

  const Schema& schema() const { return schema_; }
  double blocking_factor() const { return blocking_factor_; }
  std::size_t row_count() const { return row_count_; }

  /// Size in blocks: ceil(rows / blocking_factor), 0 when empty — the
  /// same accounting as Table::blocks().
  double blocks() const;

  ColumnKind kind(std::size_t col) const { return columns_[col].kind; }
  /// True when column `col` holds its cells.
  bool filled(std::size_t col) const { return columns_[col].filled; }

  // Typed column access. Calling the wrong accessor for a column's kind,
  // or reading an unfilled column, is a programming error (asserted).
  const std::vector<std::int64_t>& i64(std::size_t col) const;
  const std::vector<double>& f64(std::size_t col) const;
  const std::vector<std::string>& str(std::size_t col) const;
  const std::vector<std::uint8_t>& b8(std::size_t col) const;

  /// One cell as a Value, re-tagged with the schema's declared type (a
  /// kDate column yields kDate values even if appended as kInt64).
  Value value_at(std::size_t row, std::size_t col) const;

  /// Append one tuple across all columns (every one must be filled); same
  /// arity/type checks as Table::append.
  void append_row(const Tuple& tuple);

  // Column-at-a-time building (used by batch operators): append cells to
  // individual filled columns — concurrently safe for *distinct* columns
  // — then seal with set_row_count once every filled column holds the
  // same count.
  void append_value(std::size_t col, const Value& v);
  /// Gather `n` cells of `from_col` at physical rows `rows[0..n)` onto
  /// the back of column `col`. Kinds must match.
  void append_gather(std::size_t col, const ColumnTable& from,
                     std::size_t from_col, const std::uint32_t* rows,
                     std::size_t n);
  /// Seal column-wise building; asserts every filled column holds `rows`
  /// cells.
  void set_row_count(std::size_t rows);

 private:
  struct Column {
    ColumnKind kind = ColumnKind::kInt64Col;
    bool filled = true;
    std::vector<std::int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
    std::vector<std::uint8_t> b8;
    std::size_t size() const;
  };

  /// value_at without its checks.
  Value cell(std::size_t row, std::size_t col) const;

  Schema schema_;
  double blocking_factor_;
  std::size_t row_count_ = 0;
  std::vector<Column> columns_;
};

}  // namespace mvd
