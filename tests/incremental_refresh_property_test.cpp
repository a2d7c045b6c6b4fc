// Differential testing of executed incremental maintenance: after N
// randomized update batches, an incrementally-refreshed warehouse must be
// bag-identical to a recompute-refreshed twin — every stored view and
// every query answer — across engines and thread counts. The twin's base
// tables are advanced by applying the captured deltas, so the test also
// proves the captured delta is exactly (new − old). The aggregate
// warehouse must also take every grouped-apply branch (AggregatePaths).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/check/maintainability.hpp"
#include "src/exec/delta.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/rewrite.hpp"
#include "tests/refresh_workloads.hpp"

namespace mvd {
namespace {

/// Branches of the grouped +/- apply (maintain_aggregate_view) and of
/// incremental_refresh's recompute fallback that a round provably took,
/// judged from outside: the view's aggregate facts (agg_statics), its
/// report entry and its stored state before and after the round.
struct AggregatePaths {
  std::size_t minmax_applied = 0;  // MIN/MAX view group-applied a delta
  std::size_t avg_applied = 0;     // AVG view group-applied a delta
  std::size_t minmax_deletes = 0;  // deletes folded into a MIN/MAX view
  std::size_t new_groups = 0;
  std::size_t drained_groups = 0;
  std::size_t emptied_global = 0;  // global COUNT view group-applied to 0
  std::size_t sum_int_updates = 0;
  std::size_t avg_updates = 0;
  std::size_t min_updates = 0;
  std::size_t max_updates = 0;
  std::size_t placeholder_fallbacks = 0;  // global MIN/MAX from COUNT 0
  std::size_t extremum_fallbacks = 0;     // a delete reached an extremum
  std::size_t uncounted_minmax_fallbacks = 0;  // deletes without a COUNT
  std::size_t avg_without_sum_fallbacks = 0;
  std::size_t recompute_diffs = 0;  // recomputed view with a stored ancestor
};

struct PathCounts {
  std::size_t skipped = 0;
  std::size_t applied = 0;
  std::size_t group_applied = 0;
  std::size_t recomputed = 0;
  AggregatePaths aggregates;
};

/// A stored aggregate view's rows by group key (group columns lead).
std::map<std::string, const Tuple*> rows_by_group(const Table& t,
                                                  std::size_t n_groups) {
  std::map<std::string, const Tuple*> out;
  for (const Tuple& row : t.rows()) {
    std::string key;
    for (std::size_t i = 0; i < n_groups; ++i) key += row[i].to_string() + '|';
    out.emplace(std::move(key), &row);
  }
  return out;
}

void observe_aggregate_paths(const MvppGraph& g, const MaterializedSet& m,
                             const Database& before, const Database& after,
                             const RefreshReport& report,
                             AggregatePaths& out) {
  for (const ViewRefresh& e : report.views) {
    MaterializedSet deps = m;
    deps.erase(e.id);
    const PlanPtr plan = refresh_plan(g, e.id, deps);
    if (e.path == RefreshPath::kRecomputed) {
      for (const NodeId a : g.ancestors(e.id)) {
        if (m.contains(a)) {
          ++out.recompute_diffs;
          break;
        }
      }
    }
    if (plan->kind() != OpKind::kAggregate) continue;
    const auto& agg = static_cast<const AggregateOp&>(*plan);
    const AggStatics s = agg_statics(agg);
    const std::size_t n = s.n_groups;
    const auto old_rows = rows_by_group(before.table(e.view), n);
    const auto new_rows = rows_by_group(after.table(e.view), n);
    const auto count_of = [&](const Tuple& row) {
      return row[n + *s.count_spec].as_int64();
    };

    if (e.path == RefreshPath::kRecomputed) {
      const MaintVerdict verdict = certify_refresh_plan(plan).verdict;
      if (!s.avg_ok) ++out.avg_without_sum_fallbacks;
      if (verdict == MaintVerdict::kInsertOnly && s.has_minmax) {
        ++out.uncounted_minmax_fallbacks;
      }
      // With a COUNT, a same-column SUM per AVG and a propagatable child,
      // only the two extremum checks refuse a batch.
      if (verdict == MaintVerdict::kExtremumHazard) {
        if (n == 0 && count_of(*old_rows.begin()->second) == 0) {
          ++out.placeholder_fallbacks;
        } else {
          ++out.extremum_fallbacks;
          ++out.minmax_deletes;
        }
      }
      continue;
    }
    if (e.path != RefreshPath::kGroupApplied || e.delta_rows == 0) continue;

    const std::vector<AggSpec>& specs = agg.aggregates();
    if (s.has_minmax) ++out.minmax_applied;
    bool has_avg = false;
    for (const AggSpec& a : specs) has_avg |= a.fn == AggFn::kAvg;
    if (has_avg) ++out.avg_applied;
    bool created = false;
    bool drained = false;
    for (const auto& [key, row] : new_rows) created |= !old_rows.contains(key);
    for (const auto& [key, row] : old_rows) drained |= !new_rows.contains(key);
    if (n > 0 && created) ++out.new_groups;
    if (n > 0 && drained) ++out.drained_groups;
    if (n == 0 && s.count_spec.has_value() &&
        count_of(*old_rows.begin()->second) > 0 &&
        count_of(*new_rows.begin()->second) == 0) {
      ++out.emptied_global;
    }

    // Aggregates rewritten in a group that survives the round.
    std::map<AggFn, bool> changed;
    bool shrank = false;
    for (const auto& [key, row] : new_rows) {
      const auto it = old_rows.find(key);
      if (it == old_rows.end()) continue;
      const Tuple& old_row = *it->second;
      for (std::size_t j = 0; j < specs.size(); ++j) {
        if (!old_row[n + j].identical((*row)[n + j])) changed[specs[j].fn] = true;
      }
      if (s.count_spec.has_value() && count_of(*row) < count_of(old_row)) {
        shrank = true;
      }
    }
    if (changed[AggFn::kSumInt]) ++out.sum_int_updates;
    if (changed[AggFn::kAvg]) ++out.avg_updates;
    if (changed[AggFn::kMin]) ++out.min_updates;
    if (changed[AggFn::kMax]) ++out.max_updates;
    if (s.has_minmax && shrank) ++out.minmax_deletes;
  }
}

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
    observe_aggregate_paths(g, m, before_refresh, w.db, report,
                            paths.aggregates);
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

/// The aggregate workload must reach every branch AggregatePaths names.
void expect_every_aggregate_path(const PathCounts& paths) {
  const AggregatePaths& a = paths.aggregates;
  EXPECT_GT(paths.group_applied, 0u);
  EXPECT_GT(a.minmax_applied, 0u);
  EXPECT_GT(a.avg_applied, 0u);
  EXPECT_GT(a.minmax_deletes, 0u);
  EXPECT_GT(a.new_groups, 0u);
  EXPECT_GT(a.drained_groups, 0u);
  EXPECT_GT(a.emptied_global, 0u);
  EXPECT_GT(a.sum_int_updates, 0u);
  EXPECT_GT(a.avg_updates, 0u);
  EXPECT_GT(a.min_updates, 0u);
  EXPECT_GT(a.max_updates, 0u);
  EXPECT_GT(a.placeholder_fallbacks, 0u);
  EXPECT_GT(a.extremum_fallbacks, 0u);
  EXPECT_GT(a.uncounted_minmax_fallbacks, 0u);
  EXPECT_GT(a.avg_without_sum_fallbacks, 0u);
  EXPECT_GT(a.recompute_diffs, 0u);
}

TEST(IncrementalRefreshPropertyTest, AggregateRowEngine) {
  expect_every_aggregate_path(run_differential(make_aggregate_workload(),
                                               ExecMode::kRow, 1, 40,
                                               aggregate_updates(), 113));
}

TEST(IncrementalRefreshPropertyTest, AggregateVectorizedEngine) {
  expect_every_aggregate_path(run_differential(make_aggregate_workload(),
                                               ExecMode::kVectorized, 1, 40,
                                               aggregate_updates(), 113));
}

// The binder and the MVPP builder only join on column equalities (other
// cross-relation conjuncts become selections above the join), so no
// refresh plan holds an equi key next to a residual conjunct; a hand-built
// join does. Its propagated delta must turn the old join result into the
// new one.
TEST(DeltaJoinTest, EquiKeyWithResidualConjunct) {
  RefreshWorkload w = make_aggregate_workload();
  const Catalog& catalog = w.designer.catalog();
  const PlanPtr join = make_join(
      make_scan(catalog, "Fact"), make_scan(catalog, "Dim0"),
      conj({eq(col("Fact.d0"), col("Dim0.id")),
            lt(col("Fact.measure"), col("Dim0.weight"))}));
  for (const auto& [mode, threads] :
       {std::pair{ExecMode::kRow, std::size_t{1}},
        std::pair{ExecMode::kVectorized, std::size_t{1}},
        std::pair{ExecMode::kVectorized, std::size_t{4}}}) {
    Database db = w.db;
    db.put_table("J", Executor(db, mode, threads).run(join));
    Rng rng(119);
    DeltaSet batch;
    for (const char* rel : {"Fact", "Dim0"}) {
      apply_update_batch(db, rel, aggregate_updates(), rng, &batch);
    }
    DeltaSet frontier;
    for (const auto& [rel, delta] : batch) {
      frontier.emplace(rel, delta.compacted());
    }
    const std::optional<DeltaTable> delta =
        DeltaPropagator(db, frontier, mode, threads).propagate(join);
    ASSERT_TRUE(delta.has_value());
    EXPECT_GT(delta->row_count(), 0u);
    db.apply_delta("J", std::move(*delta).compacted());
    EXPECT_TRUE(
        same_bag(db.table("J"), Executor(db, mode, threads).run(join)));
  }
}

// A delete that drains a group needs no extremum: the group goes (or, for
// a global aggregate, becomes the empty input's placeholder row) whatever
// its stored MIN/MAX was. Deleting the only row of group g = 1 must be
// group-applied to a COUNT + MIN view and to a global COUNT + MIN/MAX view
// over g = 1, and leave both equal to a recompute, on every engine.
TEST(GroupedApplyTest, DrainedGroupsOfMinMaxViewsAreGroupApplied) {
  Table t(Schema({{"g", ValueType::kInt64, "T"}, {"x", ValueType::kDouble, "T"}}),
          10.0);
  t.append({Value::int64(1), Value::real(5.0)});
  t.append({Value::int64(2), Value::real(3.0)});
  t.append({Value::int64(2), Value::real(7.0)});
  Database base;
  base.add_table("T", std::move(t));
  WarehouseDesigner designer(catalog_from_database(base, 10.0));
  designer.add_query("Grouped", 1,
                     "SELECT T.g, COUNT(*), MIN(T.x) FROM T GROUP BY T.g");
  designer.add_query("Global", 1,
                     "SELECT COUNT(*), MIN(T.x), MAX(T.x) FROM T "
                     "WHERE T.g = 1");
  const DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  MaterializedSet m;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  ASSERT_EQ(m.size(), 2u);

  DeltaTable drain(base.table("T").schema());
  drain.add_delete({Value::int64(1), Value::real(5.0)});
  for (const auto& [mode, threads] :
       {std::pair{ExecMode::kRow, std::size_t{1}},
        std::pair{ExecMode::kVectorized, std::size_t{1}},
        std::pair{ExecMode::kVectorized, std::size_t{4}}}) {
    Database db = base;
    for (NodeId v : m) deploy_view(g, v, m, db, mode, threads);
    db.apply_delta("T", drain);
    const DeltaSet frontier{{"T", drain}};

    // The grouped apply takes the batch directly.
    for (NodeId v : m) {
      MaterializedSet deps = m;
      deps.erase(v);
      const PlanPtr plan = refresh_plan(g, v, deps);
      ASSERT_EQ(plan->kind(), OpKind::kAggregate);
      const std::optional<DeltaTable> child =
          DeltaPropagator(db, frontier, mode, threads)
              .propagate(plan->children()[0]);
      ASSERT_TRUE(child.has_value());
      const std::optional<GroupApplyResult> applied = maintain_aggregate_view(
          static_cast<const AggregateOp&>(*plan), db.table(g.node(v).name),
          *child);
      EXPECT_TRUE(applied.has_value()) << g.node(v).name;
      if (!applied.has_value()) continue;
      EXPECT_TRUE(same_bag(applied->next,
                           Executor(db, mode, threads).run(plan)))
          << g.node(v).name;
    }

    // And incremental_refresh reports it so.
    const RefreshReport report =
        incremental_refresh(g, m, db, frontier, nullptr, mode, threads);
    ASSERT_EQ(report.views.size(), 2u);
    for (const ViewRefresh& e : report.views) {
      EXPECT_EQ(e.path, RefreshPath::kGroupApplied) << e.view;
      MaterializedSet deps = m;
      deps.erase(e.id);
      EXPECT_TRUE(same_bag(
          db.table(e.view),
          Executor(db, mode, threads).run(refresh_plan(g, e.id, deps))))
          << e.view;
    }
  }
}

// The grouped apply shares every unchanged group's row with the stored
// view: only the groups its delta touches get new rows (or lose theirs).
TEST(GroupedApplyTest, UnchangedGroupsKeepTheirRowObjects) {
  Table t(Schema({{"g", ValueType::kInt64, "T"},
                  {"x", ValueType::kDouble, "T"}}),
          10.0);
  for (std::int64_t g = 0; g < 20; ++g) {
    t.append({Value::int64(g), Value::real(static_cast<double>(g))});
  }
  Database db;
  db.add_table("T", std::move(t));
  WarehouseDesigner designer(catalog_from_database(db, 10.0));
  designer.add_query("Grouped", 1,
                     "SELECT T.g, COUNT(*), SUM(T.x) FROM T GROUP BY T.g");
  const DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  MaterializedSet m;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  ASSERT_EQ(m.size(), 1u);
  const NodeId v = *m.begin();
  deploy_view(g, v, m, db, ExecMode::kRow, 1);

  DeltaTable delta(db.table("T").schema());
  delta.add_insert({Value::int64(3), Value::real(1.0)});  // group 3 changes
  delta.add_delete({Value::int64(7), Value::real(7.0)});  // group 7 drains
  db.apply_delta("T", delta);
  const DeltaSet frontier{{"T", delta}};
  const PlanPtr plan = refresh_plan(g, v, {});
  ASSERT_EQ(plan->kind(), OpKind::kAggregate);
  const std::optional<DeltaTable> child =
      DeltaPropagator(db, frontier, ExecMode::kRow, 1)
          .propagate(plan->children()[0]);
  ASSERT_TRUE(child.has_value());
  const Table& stored = db.table(g.node(v).name);
  const std::optional<GroupApplyResult> applied = maintain_aggregate_view(
      static_cast<const AggregateOp&>(*plan), stored, *child);
  ASSERT_TRUE(applied.has_value());

  std::set<const Tuple*> stored_rows;
  for (const Tuple& row : stored.rows()) stored_rows.insert(&row);
  ASSERT_EQ(applied->next.row_count(), 19u);
  for (const Tuple& row : applied->next.rows()) {
    EXPECT_NE(row[0].as_int64(), 7);
    EXPECT_EQ(stored_rows.contains(&row), row[0].as_int64() != 3)
        << "group " << row[0].as_int64();
  }
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

TEST(IncrementalRefreshTsanTest, AggregateVectorizedFourThreads) {
  expect_every_aggregate_path(run_differential(make_aggregate_workload(),
                                               ExecMode::kVectorized, 4, 40,
                                               aggregate_updates(), 113));
}

}  // namespace
}  // namespace mvd
