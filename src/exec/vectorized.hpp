// The columnar batch engine behind Executor's ExecMode::kVectorized.
//
// Operators pass around selection vectors over shared ColumnTables
// instead of materialized tuple vectors; cell data is copied only when a
// join or aggregate compacts its output and at the final sink. Scans,
// selects, hash-join builds/probes and aggregation run morsel-parallel
// (fixed kMorselRows morsels, per-morsel partials merged on the calling
// thread in morsel order) so the output is bit-identical at any thread
// count. Each operator picks its loop from the input's column types: a
// select's first conjunct filters an unfiltered input's dense row range,
// int64-vs-literal comparisons run as exact int64 loops, one or two
// numeric join keys key the hash table exactly, and numeric-keyed
// COUNT/SUM/AVG aggregates accumulate count/sum pairs under a packed
// two-word key. See DESIGN.md §10.
#pragma once

#include <map>
#include <memory>

#include "src/exec/executor.hpp"
#include "src/storage/column_table.hpp"

namespace mvd {

/// Memoized columnar conversions of stored tables, keyed by table
/// identity. An entry is invalidated when the table's row count changes;
/// callers that mutate stored tables in place between runs without
/// changing the row count must use a fresh Executor (constructing one is
/// free — the cache fills lazily).
class ColumnTableCache {
 public:
  std::shared_ptr<const ColumnTable> get(const Table& table);

 private:
  struct Entry {
    std::size_t rows = 0;
    std::shared_ptr<const ColumnTable> data;
  };
  std::map<const Table*, Entry> cache_;
};

/// Execute `plan` with the batch engine. Semantics match the row engine:
/// same bag of tuples, same ExecStats block accounting, same rows_out
/// entries; only row order may differ between the two engines (and is
/// itself deterministic per engine). `threads` is the morsel worker
/// count (1 = serial, 0 = hardware auto).
Table run_vectorized(const Database& db, const PlanPtr& plan, ExecStats* stats,
                     std::size_t threads, ColumnTableCache& cache);

}  // namespace mvd
