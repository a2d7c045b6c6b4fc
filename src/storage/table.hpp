// In-memory tables with block accounting.
//
// The executor runs against Tables; the cost model reasons in blocks, so a
// Table reports its size in blocks using the same blocking factor the
// catalog uses, making estimated-vs-actual comparisons meaningful.
//
// Rows are immutable and shared: a Table holds one reference-counted
// handle per row, so a copy of a table (a copy-on-write clone, a rebind,
// the surviving rows of an update) copies handles, not tuples, and every
// version that keeps a row shares it. A write replaces handles; a row is
// freed with the last version holding it.
//
// A Table also keeps the columnar form the vectorized engine scans
// (columnar()), filled one column at a time: the first scan that reads a
// column converts it, and every later scan of the same table reuses it —
// from any executor, and from any Database copy sharing the table. Every
// mutator drops the form, and copies and moves start without one, so a
// column converts at most once per table version.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/catalog/schema.hpp"
#include "src/catalog/statistics.hpp"
#include "src/storage/value.hpp"

namespace mvd {

using Tuple = std::vector<Value>;

/// A stored row: immutable, shared by every table that holds it.
using RowHandle = std::shared_ptr<const Tuple>;

/// Rows [first, last) of a table's handles, read as const Tuple& — a
/// random-access range, valid until the table changes.
class RowRange {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    iterator() = default;
    explicit iterator(const RowHandle* at) : at_(at) {}

    reference operator*() const { return **at_; }
    pointer operator->() const { return at_->get(); }
    reference operator[](difference_type n) const { return *at_[n]; }
    iterator& operator++() { ++at_; return *this; }
    iterator operator++(int) { return iterator(at_++); }
    iterator& operator--() { --at_; return *this; }
    iterator operator--(int) { return iterator(at_--); }
    iterator& operator+=(difference_type n) { at_ += n; return *this; }
    iterator& operator-=(difference_type n) { at_ -= n; return *this; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return a.at_ - b.at_;
    }
    friend bool operator==(const iterator&, const iterator&) = default;
    friend auto operator<=>(const iterator&, const iterator&) = default;

   private:
    const RowHandle* at_ = nullptr;
  };

  RowRange(const RowHandle* first, const RowHandle* last)
      : first_(first), last_(last) {}

  iterator begin() const { return iterator(first_); }
  iterator end() const { return iterator(last_); }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  const Tuple& operator[](std::size_t i) const { return *first_[i]; }

 private:
  const RowHandle* first_;
  const RowHandle* last_;
};

/// Allocation-free 64-bit tuple hash under delta matching's equivalence
/// (tuples_equivalent): numerics by their double bit pattern with -0.0
/// folded onto +0.0, so kInt64 1 and kDouble 1.0 hash equal.
std::uint64_t tuple_hash(const Tuple& t);

/// The equivalence delta matching pairs rows by: numerics by normalized
/// double bits (kInt64 1 ≡ kDouble 1.0, -0.0 ≡ 0.0, a NaN matches a NaN
/// with the same bits), strings and bools by value, kinds never across.
bool tuples_equivalent(const Tuple& a, const Tuple& b);

class ColumnSet;
class ColumnTable;

class Table {
 public:
  explicit Table(Schema schema, double blocking_factor = 10.0);

  const Schema& schema() const { return schema_; }
  double blocking_factor() const { return blocking_factor_; }

  /// Append a tuple; arity and types are checked (kInt64 accepted where
  /// kDate is declared and vice versa — both are day counts).
  void append(Tuple tuple);

  /// Append row `i` of `src` without copying it: the two tables share the
  /// row. No cell is re-checked, so `src`'s columns must fit this table's
  /// (check_rebind(schema(), src.schema()) passes; a table always fits
  /// itself and any table it was derived from).
  void append_shared(const Table& src, std::size_t i);

  void reserve(std::size_t rows) { rows_.reserve(rows); }

  /// `src`'s rows [begin, end) (all of them by default), shared, under a
  /// new (e.g. qualified) schema, validating column types once per column
  /// instead of once per cell. Throws ExecError on arity or declared-type
  /// incompatibility.
  static Table rebind(Schema schema, const Table& src, std::size_t begin = 0,
                      std::size_t end = SIZE_MAX);
  /// rebind's checks alone: throws the same ExecError rebind would when
  /// rows stored under `stored` cannot be read under `schema`.
  static void check_rebind(const Schema& schema, const Schema& stored);

  std::size_t row_count() const { return rows_.size(); }
  const Tuple& row(std::size_t i) const;
  /// Every row, or rows [begin, end).
  RowRange rows() const { return rows(0, rows_.size()); }
  RowRange rows(std::size_t begin, std::size_t end) const;

  /// Replace row `i`; same arity/type checks as append().
  void update_row(std::size_t i, Tuple tuple);

  /// Remove row `i` (swap-with-last, order not preserved).
  void remove_row(std::size_t i);

  /// Reorder the rows so that row i is the old row order[i]; `order` must
  /// be a permutation of the row indices. Rows move, never copy.
  void permute(const std::vector<std::size_t>& order);

  /// Start keeping one tuple_hash per row (hashing the current rows once;
  /// a no-op when already kept). From then on every mutator keeps the
  /// hashes in step (append_shared takes the source's kept hash), and
  /// copies carry them. apply_delta calls it on the first delete-bearing
  /// delta, so a table that never takes deletes never hashes.
  void keep_hashes();
  bool keeps_hashes() const { return keeps_hashes_; }
  /// row_hashes()[i] == tuple_hash(row(i)) while keeps_hashes(); empty
  /// otherwise.
  const std::vector<std::uint64_t>& row_hashes() const { return hashes_; }

  /// Size in blocks: ceil(rows / blocking_factor), 0 when empty.
  double blocks() const { return blocks_of(rows_.size(), blocking_factor_); }
  /// The same accounting for any row count (at least one block when
  /// non-empty).
  static double blocks_of(std::size_t rows, double blocking_factor);

  /// Derive RelationStats (rows, blocks, per-column distinct counts and
  /// numeric min/max) from the actual data. Lets generated datasets feed
  /// the estimator the truth, isolating cost-model error from stats error.
  RelationStats compute_stats() const;

  /// First `limit` rows rendered as an aligned table (for examples/demos).
  std::string preview(std::size_t limit = 10) const;

  /// The kept columnar form with at least the columns in `need` filled,
  /// converting (under the table's lock) those not yet filled. Safe to
  /// call from several threads at once, as reading is; the form stays
  /// valid for its holders after the table changes. Publishes the
  /// storage/columnar/* counters and a storage.columnar span per fill.
  std::shared_ptr<const ColumnTable> columnar(const ColumnSet& need) const;

 private:
  /// The kept form and the lock columnar() fills it under (mutators need
  /// exclusive access to the table anyway). It is no part of the table's
  /// value: a copy or a move of the table starts without a form, a moved-
  /// from table loses its own, and assignment drops the target's.
  struct Columnar {
    Columnar() = default;
    Columnar(const Columnar&) {}
    Columnar(Columnar&& other) noexcept { other.form.reset(); }
    Columnar& operator=(const Columnar&) {
      form.reset();
      return *this;
    }
    Columnar& operator=(Columnar&& other) noexcept {
      form.reset();
      other.form.reset();
      return *this;
    }
    std::mutex mutex;
    std::shared_ptr<ColumnTable> form;
  };

  /// ColumnTable's sink appends rows its typed columns built (push).
  friend class ColumnTable;

  /// Every mutator calls it first: the rows are about to change.
  void drop_columnar() { columnar_.form.reset(); }

  /// Append a tuple unchecked: its cells already fit the schema.
  void push(Tuple tuple);

  Schema schema_;
  double blocking_factor_;
  std::vector<RowHandle> rows_;
  bool keeps_hashes_ = false;
  std::vector<std::uint64_t> hashes_;
  mutable Columnar columnar_;
};

}  // namespace mvd
