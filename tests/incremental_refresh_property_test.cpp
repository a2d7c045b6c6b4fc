// Differential testing of executed incremental maintenance: after N
// randomized update batches, an incrementally-refreshed warehouse must be
// bag-identical to a recompute-refreshed twin — every stored view and
// every query answer — across engines and thread counts. The twin's base
// tables are advanced by applying the captured deltas, so the test also
// proves the captured delta is exactly (new − old).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/maintainability.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/rewrite.hpp"
#include "tests/refresh_workloads.hpp"

namespace mvd {
namespace {

struct PathCounts {
  std::size_t skipped = 0;
  std::size_t applied = 0;
  std::size_t group_applied = 0;
  std::size_t recomputed = 0;
};

/// mvcheck's static refresh-path predictions must agree with the paths
/// incremental_refresh actually took. The per-view frontier is replayed
/// from the before/after stored states: each refreshed view contributes
/// its bag diff under its node name, exactly as the runtime records its
/// own delta for ancestors.
void expect_predictions_agree(const MvppGraph& g, const MaterializedSet& m,
                              const Database& before, const Database& after,
                              const DeltaSet& batch,
                              const RefreshReport& report) {
  DeltaSet frontier = batch;
  for (const ViewRefresh& e : report.views) {
    MaterializedSet deps = m;
    deps.erase(e.id);
    const PlanPtr plan = refresh_plan(g, e.id, deps);
    const RefreshPrediction pred =
        predict_refresh_path(plan, frontier, &before, e.view);
    SCOPED_TRACE(e.view + ": predicted " + to_string(pred.path) + " (" +
                 pred.reason + "), runtime took " + to_string(e.path));
    switch (pred.path) {
      case PredictedPath::kSkip:
        EXPECT_EQ(e.path, RefreshPath::kSkipped);
        break;
      case PredictedPath::kIncremental:
        EXPECT_TRUE(e.path == RefreshPath::kApplied ||
                    e.path == RefreshPath::kGroupApplied);
        break;
      case PredictedPath::kRecompute:
        EXPECT_EQ(e.path, RefreshPath::kRecomputed);
        break;
      case PredictedPath::kDataDependent:
        EXPECT_NE(e.path, RefreshPath::kSkipped);
        break;
    }
    // Skips are predicted exactly, never merely permitted.
    if (e.path == RefreshPath::kSkipped) {
      EXPECT_EQ(pred.path, PredictedPath::kSkip);
    }
    // Certificate cross-check: a fully self-maintainable plan never falls
    // back to recomputation, whatever the batch.
    if (certify_refresh_plan(plan).verdict ==
        MaintVerdict::kSelfMaintainable) {
      EXPECT_NE(e.path, RefreshPath::kRecomputed);
    }
    frontier.insert_or_assign(
        e.view,
        DeltaTable::diff(before.table(e.view), after.table(e.view)));
  }
}

/// Drive `rounds` update batches through two copies of the warehouse —
/// one maintained incrementally under (mode, threads), one by full
/// recomputation — asserting bag-identity of every stored view and query
/// answer after every round. Returns which refresh paths were taken so
/// callers can assert the incremental machinery actually engaged.
PathCounts run_differential(RefreshWorkload w, ExecMode mode,
                            std::size_t threads, std::size_t rounds,
                            const UpdateStreamOptions& opts,
                            std::uint64_t seed) {
  const MvppGraph& g = w.design.graph();
  // Maintain the chosen set plus every query result node, so join views,
  // frontier-reused intermediates, and aggregate roots all get refreshed.
  MaterializedSet& m = w.design.selection.materialized;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  EXPECT_FALSE(m.empty());

  w.designer.deploy(w.design, w.db);
  Database recomputed = w.db;  // the recompute twin

  PathCounts paths;
  Rng rng(seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    DeltaSet batch;
    // Two relations per round, rotating so every base (and both sides of
    // every join) eventually carries the delta.
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string& rel =
          w.update_relations[(round + k) % w.update_relations.size()];
      apply_update_batch(w.db, rel, opts, rng, &batch);
    }
    // Advance the twin's base tables with the captured deltas: proves the
    // capture is exactly (new − old) on top of keeping the twins aligned.
    for (const auto& [rel, delta] : batch) {
      recomputed.apply_delta(rel, delta.compacted());
      EXPECT_TRUE(same_bag(w.db.table(rel), recomputed.table(rel))) << rel;
    }

    ExecStats stats;
    const Database before_refresh = w.db;
    const RefreshReport report =
        incremental_refresh(g, m, w.db, batch, &stats, mode, threads);
    expect_predictions_agree(g, m, before_refresh, w.db, batch, report);
    paths.skipped += report.count(RefreshPath::kSkipped);
    paths.applied += report.count(RefreshPath::kApplied);
    paths.group_applied += report.count(RefreshPath::kGroupApplied);
    paths.recomputed += report.count(RefreshPath::kRecomputed);
    w.designer.refresh(w.design, recomputed);

    for (NodeId v : m) {
      const std::string& name = g.node(v).name;
      EXPECT_TRUE(same_bag(w.db.table(name), recomputed.table(name)))
          << "round " << round << ", view " << name;
    }
    for (const QuerySpec& q : w.designer.queries()) {
      const Table inc = w.designer.answer(w.design, q.name(), w.db);
      const Table rec = w.designer.answer(w.design, q.name(), recomputed);
      EXPECT_TRUE(same_bag(inc, rec)) << "round " << round << ", " << q.name();
    }
  }

  // Absolute ground truth at the end: answers from the incrementally
  // maintained warehouse match canonical from-scratch evaluation.
  const Executor exec(w.db);
  for (const QuerySpec& q : w.designer.queries()) {
    const Table expected = exec.run(canonical_plan(w.designer.catalog(), q));
    const Table got = w.designer.answer(w.design, q.name(), w.db);
    EXPECT_TRUE(same_bag(expected, got)) << q.name();
  }
  return paths;
}

TEST(IncrementalRefreshPropertyTest, StarRowEngine) {
  const PathCounts paths = run_differential(make_star_workload(),
                                            ExecMode::kRow, 1, 20,
                                            mixed_updates(), 101);
  EXPECT_GT(paths.applied, 0u);
  EXPECT_GT(paths.group_applied, 0u);  // aggregate rollups maintained +/-
}

TEST(IncrementalRefreshPropertyTest, StarVectorizedEngine) {
  const PathCounts paths = run_differential(make_star_workload(),
                                            ExecMode::kVectorized, 1, 20,
                                            mixed_updates(), 101);
  EXPECT_GT(paths.applied, 0u);
  EXPECT_GT(paths.group_applied, 0u);
}

TEST(IncrementalRefreshPropertyTest, ChainRowEngine) {
  const PathCounts paths = run_differential(make_chain_workload(),
                                            ExecMode::kRow, 1, 20,
                                            mixed_updates(), 103);
  EXPECT_GT(paths.applied, 0u);
}

TEST(IncrementalRefreshPropertyTest, ChainVectorizedEngine) {
  const PathCounts paths = run_differential(make_chain_workload(),
                                            ExecMode::kVectorized, 1, 20,
                                            mixed_updates(), 103);
  EXPECT_GT(paths.applied, 0u);
}

TEST(IncrementalRefreshPropertyTest, PaperExampleFrontierReuse) {
  // The Figure 3 MVPP shares tmp2/tmp4 under several views — deltas must
  // flow through materialized intermediates, not around them.
  const PathCounts paths = run_differential(make_paper_workload(),
                                            ExecMode::kRow, 1, 20,
                                            mixed_updates(), 107);
  EXPECT_GT(paths.applied, 0u);
}

TEST(IncrementalRefreshPropertyTest, StarDeleteHeavyBatches) {
  // Delete-heavy rounds force emptied groups and MIN/MAX-style fallbacks
  // through the recompute path while staying bag-identical.
  UpdateStreamOptions opts;
  opts.modify_fraction = 0.02;
  opts.insert_fraction = 0.01;
  opts.delete_fraction = 0.2;
  run_differential(make_star_workload(), ExecMode::kRow, 1, 6, opts, 109);
}

// Separate fixture name so the TSan CI job can include exactly these
// (mirroring ExecEngineTsanTest): morsel-parallel vectorized full-side
// production inside delta propagation must be race-free.
TEST(IncrementalRefreshTsanTest, StarVectorizedFourThreads) {
  run_differential(make_star_workload(), ExecMode::kVectorized, 4, 8,
                   mixed_updates(), 211);
}

TEST(IncrementalRefreshTsanTest, ChainVectorizedFourThreads) {
  run_differential(make_chain_workload(), ExecMode::kVectorized, 4, 8,
                   mixed_updates(), 213);
}

}  // namespace
}  // namespace mvd
