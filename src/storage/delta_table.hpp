// Signed row deltas — the unit of incremental view maintenance.
//
// A DeltaTable is a pair of bags (inserts, deletes) over one schema,
// representing the multiset difference `after − before` of a relation.
// Deltas use the same Table block accounting the cost model reasons in,
// so executed delta work is directly comparable to the incremental
// maintenance estimates (src/maintenance/incremental.hpp). A DeltaSet
// names the deltas of one update round the way a Database names tables;
// the propagation operators (src/exec/delta.hpp) look leaves up in it.
#pragma once

#include <map>
#include <string>

#include "src/storage/table.hpp"

namespace mvd {

class DeltaTable {
 public:
  explicit DeltaTable(Schema schema, double blocking_factor = 10.0);

  const Schema& schema() const { return inserts_.schema(); }
  double blocking_factor() const { return inserts_.blocking_factor(); }

  const Table& inserts() const { return inserts_; }
  const Table& deletes() const { return deletes_; }

  /// Append with the usual Table arity/type checks.
  void add_insert(Tuple tuple) { inserts_.append(std::move(tuple)); }
  void add_delete(Tuple tuple) { deletes_.append(std::move(tuple)); }
  /// Append row `i` of `src` shared, as Table::append_shared does (so
  /// `src`'s columns must fit this delta's).
  void share_insert(const Table& src, std::size_t i) {
    inserts_.append_shared(src, i);
  }
  void share_delete(const Table& src, std::size_t i) {
    deletes_.append_shared(src, i);
  }

  std::size_t row_count() const {
    return inserts_.row_count() + deletes_.row_count();
  }
  bool empty() const { return row_count() == 0; }

  /// Combined size in blocks (insert blocks + delete blocks).
  double blocks() const { return inserts_.blocks() + deletes_.blocks(); }

  /// Copy with matched insert/delete pairs cancelled (bag semantics,
  /// rows paired under tuples_equivalent; surviving rows keep their
  /// order, and inserts are shared). An update stream that rewrites a
  /// row to itself produces such pairs; cancelling them before
  /// propagation avoids amplifying no-op work. A delta with an empty bag
  /// has nothing to pair and comes back unchanged (moved, from an
  /// rvalue).
  DeltaTable compacted() const&;
  DeltaTable compacted() &&;

  /// The bag difference `after − before` (schemas must have equal arity;
  /// rows pair under tuples_equivalent, so an int64 1 matches a double
  /// 1.0). Its inserts are shared with `after`.
  static DeltaTable diff(const Table& before, const Table& after);

  /// Both sides, their rows shared, under a new (e.g. qualified) schema
  /// via Table::rebind. Throws ExecError on incompatibility.
  static DeltaTable rebind(Schema schema, const DeltaTable& src);

 private:
  Table inserts_;
  Table deletes_;
};

/// The named deltas of one update round, keyed like Database tables (base
/// relations under their catalog names, refreshed views under their MVPP
/// node names). A missing or empty entry means "unchanged" (a refresh
/// frontier is stricter; see DeltaPropagator).
using DeltaSet = std::map<std::string, DeltaTable>;

/// Apply `delta` to `stored` in place: bag-subtract the deletes (each
/// takes the first stored rows equivalent to it under tuples_equivalent),
/// append the inserts, shared with the delta. A delete-bearing delta
/// makes `stored` keep its row hashes (Table::keep_hashes). Throws
/// ExecError, before any change, when the delta has inserts whose columns
/// do not fit `stored` (Table::check_rebind), and when a delete has no
/// matching stored row (the stored view disagrees with the state the
/// delta was derived from).
void apply_delta(Table& stored, const DeltaTable& delta);

}  // namespace mvd
