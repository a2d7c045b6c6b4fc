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
// two-word key. Before a run, a column pass works out which output columns
// of each node its readers use; scans fill and joins gather only those.
// See DESIGN.md §10.
#pragma once

#include "src/exec/executor.hpp"

namespace mvd {

/// Execute `plan` with the batch engine. Semantics match the row engine:
/// same bag of tuples, same ExecStats block accounting, same rows_out
/// entries; only row order may differ between the two engines (and is
/// itself deterministic per engine). `threads` is the morsel worker
/// count (1 = serial, 0 = hardware auto); `scope` narrows the run as in
/// Executor::run. Scans read the stored tables' kept columnar forms
/// (Table::columnar), filling only the columns the plan reads.
Table run_vectorized(const Database& db, const PlanPtr& plan, ExecStats* stats,
                     std::size_t threads, const RunScope* scope = nullptr);

}  // namespace mvd
