// WarehouseDesigner — the top-level public API.
//
// Usage:
//   Catalog catalog = ...;                 // relations, stats, fu
//   WarehouseDesigner designer(std::move(catalog));
//   designer.add_query("Q1", 10.0, "SELECT ... FROM ... WHERE ...");
//   ...
//   DesignResult design = designer.design();   // MVPPs + view selection
//   designer.deploy(design, db);               // materialize chosen views
//   Table t = designer.answer(design, "Q1", db);  // answered from views
//   ... after base updates ...
//   designer.refresh(design, db);              // recompute stored views
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/exec/executor.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/rewrite.hpp"

namespace mvd {

struct DesignerOptions {
  CostModelConfig cost;
  MaintenancePolicy maintenance;
  enum class Algorithm { kYang, kGreedy, kExhaustive, kAnnealing };
  Algorithm algorithm = Algorithm::kYang;
  AnnealingOptions annealing;
  /// Candidate-count cap for the exhaustive algorithm.
  std::size_t exhaustive_limit = 22;
};

struct DesignResult {
  /// All candidate MVPPs (one per merge-order rotation).
  std::vector<MvppBuildResult> candidates;
  /// Index of the winning candidate.
  std::size_t mvpp_index = 0;
  /// The chosen materialized set and its costs (on the winning MVPP).
  SelectionResult selection;

  const MvppGraph& graph() const { return candidates[mvpp_index].graph; }
};

class WarehouseDesigner {
 public:
  explicit WarehouseDesigner(Catalog catalog, DesignerOptions options = {});

  /// Register a warehouse query from SQL text. Throws on parse/bind errors
  /// and duplicate names.
  void add_query(const std::string& name, double frequency,
                 const std::string& sql);
  /// Register an already-bound query.
  void add_query(QuerySpec spec);

  const Catalog& catalog() const { return catalog_; }
  const std::vector<QuerySpec>& queries() const { return queries_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Generate the candidate MVPPs, run the configured selection algorithm
  /// on each, and return the winner.
  DesignResult design() const;

  /// Printable summary: winning MVPP, chosen views, cost breakdown,
  /// comparison against the trivial strategies.
  std::string report(const DesignResult& design) const;

  // ---- Runtime (requires a Database holding the base tables under their
  // catalog names; a partitioned one works the same — see deploy_view) ----

  /// Compute and store every chosen view (dependency order; views read
  /// already-stored views) through deploy_view. Stored under their MVPP
  /// node names. When `stats` is given, refresh work is accumulated and
  /// each view's row count is recorded under its node name in
  /// stats->rows_out (the selection/exec-rows-consistent lint rule checks
  /// those entries against the stored tables).
  void deploy(const DesignResult& design, Database& db,
              ExecStats* stats = nullptr) const;

  /// Recompute all stored views after base-table changes (the recompute
  /// maintenance discipline of the paper).
  void refresh(const DesignResult& design, Database& db,
               ExecStats* stats = nullptr) const;

  /// Maintain the stored views after base-table changes described by
  /// `base_deltas` (capture them by passing a delta_out to
  /// apply_update_batch). kIncremental propagates the deltas through each
  /// view's refresh plan and applies them in place
  /// (src/maintenance/refresh.hpp); kRecompute re-runs every refresh plan
  /// as deploy does. Both return a per-view report of the path taken.
  RefreshReport refresh(const DesignResult& design, Database& db,
                        const DeltaSet& base_deltas,
                        RefreshMode mode = RefreshMode::kRecompute,
                        ExecStats* stats = nullptr) const;

  /// Answer a registered query from the deployed warehouse. (On a
  /// partitioned warehouse, ShardedExecutor runs the same answer_plan
  /// bucket by bucket.)
  Table answer(const DesignResult& design, const std::string& query_name,
               const Database& db, ExecStats* stats = nullptr) const;

 private:
  SelectionAlgorithm selection_algorithm() const;

  Catalog catalog_;
  DesignerOptions options_;
  CostModel cost_model_;
  Optimizer optimizer_;
  std::vector<QuerySpec> queries_;
};

/// Compute view `v` of `graph` from its refresh plan over `db` (the other
/// views of `m` read as stored) and store it under its node name — the
/// one routine behind WarehouseDesigner::deploy and MvServer's first
/// snapshot. The view is stored hash-partitioned (DESIGN.md §15) when its
/// plan has one partitioned-leaf path, no aggregate on that path, and
/// keeps the leaf's partition key in its output; otherwise it is stored
/// once, because no refresh could re-bucket it. Its row count lands in
/// stats->rows_out[name] and, when partitioned, each shard's share in
/// stats->per_shard.
void deploy_view(const MvppGraph& graph, NodeId v, const MaterializedSet& m,
                 Database& db, ExecMode mode, std::size_t threads,
                 ExecStats* stats = nullptr);

}  // namespace mvd
