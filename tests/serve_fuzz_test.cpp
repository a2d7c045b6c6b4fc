// Differential subsumption fuzzer for mvserve (ISSUE satellite a).
//
// For each of three schema families (star, chain, paper) the harness
// designs a warehouse whose materialized set covers every workload
// query, then fires >= 200 randomly perturbed ad-hoc queries per round
// at one MvServer per engine configuration (row, vectorized at one and
// at two threads). Every query is answered twice on the same snapshot —
// rewriter enabled (kAuto) and forced base-table (kBaseOnly) — and the
// two answers must be bag-equal on every engine. Across engines the
// matcher's decision must agree, and the vectorized engine must return
// bit-identical tables at both thread counts (its determinism contract,
// row order included; the row engine is only bag-equal to it). Each query
// is also served as SQL text (QuerySpec::to_sql) through the shape cache
// on every server: same bag and same route as the spec, and the spec the
// cache instantiates equals parse_adhoc's in every field.
//
// Perturbations keep the differential interesting: tightened predicates
// with constants sampled from the actual table data (residual
// compensation), projection subsets, re-aggregation over SPJ views, and
// rollups to coarser groupings — plus widened variants that must fall
// back. SUM/AVG are only generated over int64 columns so every
// aggregate value is exact (double accumulation order differs between
// engines; int64 sums below 2^53 do not).
//
// Adversarial near-misses — predicate widened just past the view's
// boundary, an extra FROM relation, a grouping / projection column the
// view never stored — are asserted to REFUSE via match_query_to_view
// against each workload query's own covering view.
//
// The star family runs a second time over its warehouse hash-partitioned
// on Fact.d0 at four shards, with an incremental update_and_refresh round
// on Fact and Dim0 between two differential rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/check/implication.hpp"
#include "src/common/random.hpp"
#include "src/exec/sharded.hpp"
#include "src/optimizer/view_rewrite.hpp"
#include "src/serve/server.hpp"
#include "src/warehouse/deployed.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"
#include "tests/serve_oracle.hpp"

namespace mvd {
namespace {

constexpr int kQueriesPerRound = 200;

/// One schema family under fuzz: data, catalog, and the workload whose
/// result nodes become the deployed views.
struct Fixture {
  std::string label;
  Catalog catalog;
  Database db;
  std::vector<QuerySpec> workload;
};

Fixture star_fixture() {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = 1'200;
  schema.dimension_rows = 100;
  schema.categories = 8;
  schema.measure_range = 50;
  StarQueryOptions queries;
  queries.count = 6;
  queries.aggregation_probability = 0.4;
  queries.seed = 101;
  Catalog catalog = make_star_catalog(schema);
  std::vector<QuerySpec> workload =
      generate_star_queries(catalog, schema, queries);
  return {"star", catalog, populate_star_database(schema, 55),
          std::move(workload)};
}

Fixture chain_fixture() {
  ChainSchemaOptions schema;
  schema.length = 4;
  schema.rows = 400;
  ChainQueryOptions queries;
  queries.count = 5;
  queries.seed = 17;
  Catalog catalog = make_chain_catalog(schema);
  std::vector<QuerySpec> workload =
      generate_chain_queries(catalog, schema, queries);
  return {"chain", catalog, populate_chain_database(schema, 29),
          std::move(workload)};
}

Fixture paper_fixture() {
  PaperExample ex = make_paper_example();
  return {"paper", ex.catalog, populate_paper_database(0.01, 23), ex.queries};
}

/// The star fixture over its warehouse partitioned on Fact.d0.
Fixture partitioned_star_fixture() {
  Fixture fx = star_fixture();
  fx.label = "star-partitioned";
  fx.db = shard_database(fx.db, 4, {{"Fact", "d0"}});
  return fx;
}

/// Design the warehouse and force every query's result node into the
/// materialized set (union with the heuristic's own picks, so best-match
/// has real competition), guaranteeing each workload template a
/// covering view.
DesignResult covered_design(const Catalog& catalog,
                            const std::vector<QuerySpec>& workload) {
  WarehouseDesigner designer(catalog);
  for (const QuerySpec& q : workload) designer.add_query(q);
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    design.selection.materialized.insert(g.node(q).children[0]);
  }
  return design;
}

ServeOptions engine_options(ExecMode mode, std::size_t threads = 2) {
  ServeOptions options;
  options.mode = mode;
  options.threads = threads;
  return options;
}

/// Cell-by-cell equality including row order — the vectorized engine's
/// thread-count contract.
bool exactly_equal(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count()) return false;
  if (a.schema().size() != b.schema().size()) return false;
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    const Tuple& ra = a.row(i);
    const Tuple& rb = b.row(i);
    for (std::size_t j = 0; j < ra.size(); ++j) {
      if (!(ra[j] == rb[j])) return false;
    }
  }
  return true;
}

ValueType column_type(const Catalog& catalog, const std::string& qualified) {
  const std::size_t dot = qualified.find('.');
  MVD_ASSERT(dot != std::string::npos);
  const Schema& schema = catalog.schema(qualified.substr(0, dot));
  const std::string attr = qualified.substr(dot + 1);
  for (const Attribute& a : schema.attributes()) {
    if (a.name == attr) return a.type;
  }
  MVD_ASSERT(false && "unknown column");
  return ValueType::kBool;
}

/// A constant drawn from the live data of `qualified`'s relation, so
/// tightened predicates sit on real value boundaries instead of missing
/// the data entirely.
std::optional<Value> sample_value(const Database& db,
                                  const std::string& qualified, Rng& rng) {
  const std::size_t dot = qualified.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const std::string relation = qualified.substr(0, dot);
  if (!db.has_table(relation)) return std::nullopt;
  const Table& t = db.table(relation);
  if (t.row_count() == 0) return std::nullopt;
  const std::optional<std::size_t> idx =
      t.schema().find(qualified.substr(dot + 1));
  if (!idx.has_value()) return std::nullopt;
  return t.row(rng.index(t.row_count()))[*idx];
}

/// Random comparison over a stored column, anchored at a sampled data
/// value. Strings get equality; numerics and dates get a random
/// range/exclusion operator.
ExprPtr tighten_conjunct(const Catalog& catalog, const Database& db,
                         const std::string& column, Rng& rng) {
  const std::optional<Value> v = sample_value(db, column, rng);
  if (!v.has_value()) return nullptr;
  switch (column_type(catalog, column)) {
    case ValueType::kString:
      return eq(col(column), lit(*v));
    case ValueType::kInt64:
    case ValueType::kDate: {
      static constexpr CompareOp kOps[] = {CompareOp::kGe, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kLt,
                                           CompareOp::kNe};
      return cmp(kOps[rng.index(5)], col(column), lit(*v));
    }
    case ValueType::kDouble: {
      return cmp(rng.chance(0.5) ? CompareOp::kGe : CompareOp::kLe,
                 col(column), lit(*v));
    }
    case ValueType::kBool:
      return nullptr;
  }
  return nullptr;
}

/// One random ad-hoc query perturbed from a workload template. The
/// template's result view stores exactly its projection (or grouping +
/// aggregates), so tightening over those columns keeps the query
/// answerable from the view, while the occasional dropped selection
/// forces the base-table fallback.
class AdhocGenerator {
 public:
  AdhocGenerator(const Catalog& catalog, const Database& db,
                 const std::vector<QuerySpec>& workload, std::uint64_t seed)
      : catalog_(catalog), db_(db), workload_(workload), rng_(seed) {}

  QuerySpec next() {
    const QuerySpec& base = workload_[rng_.index(workload_.size())];
    const std::string name = "F" + std::to_string(++counter_);

    std::vector<ExprPtr> where;
    for (const JoinPredicate& j : base.joins()) where.push_back(j.expr());
    std::vector<ExprPtr> selections = base.selections();
    if (!selections.empty() && rng_.chance(0.15)) {
      // Widen: without this conjunct the view no longer contains the
      // query, so the server must fall back (and still agree with base).
      selections.erase(selections.begin() +
                       static_cast<std::ptrdiff_t>(rng_.index(selections.size())));
    }
    for (const ExprPtr& s : selections) where.push_back(s);

    const std::vector<std::string>& stored =
        base.has_aggregation() ? base.group_by() : base.projection();
    const std::size_t extra = rng_.index(3);
    for (std::size_t i = 0; i < extra && !stored.empty(); ++i) {
      ExprPtr c = tighten_conjunct(catalog_, db_,
                                   stored[rng_.index(stored.size())], rng_);
      if (c != nullptr) where.push_back(c);
    }

    if (base.has_aggregation()) return perturb_aggregate(base, name, where);
    return perturb_spj(base, name, where);
  }

 private:
  QuerySpec perturb_spj(const QuerySpec& base, const std::string& name,
                        std::vector<ExprPtr>& where) {
    if (rng_.chance(0.35)) {
      // Re-aggregate over the SPJ view: the query's own gamma runs above
      // the stored rows.
      const std::vector<std::string>& proj = base.projection();
      const std::string group = proj[rng_.index(proj.size())];
      // Explicit aliases: default ones collide when two relations share
      // a bare column name (Dim0.label and Dim1.label both defaulting to
      // "max_label").
      std::vector<AggSpec> aggs{AggSpec{AggFn::kCount, "", ""}};
      for (const std::string& c : proj) {
        if (c == group) continue;
        const std::string alias =
            "a" + std::to_string(aggs.size()) + "_" +
            c.substr(c.find('.') + 1);
        const ValueType t = column_type(catalog_, c);
        if (t == ValueType::kInt64 && rng_.chance(0.6)) {
          aggs.push_back(AggSpec{rng_.chance(0.5) ? AggFn::kSum : AggFn::kAvg,
                                 c, alias});
        } else if (rng_.chance(0.4)) {
          aggs.push_back(AggSpec{
              rng_.chance(0.5) ? AggFn::kMin : AggFn::kMax, c, alias});
        }
      }
      return QuerySpec::bind(catalog_, name, 1.0, base.relations(),
                             conj(std::move(where)), {group}, {group},
                             std::move(aggs));
    }
    // Residual projection: a shuffled, non-empty subset of the stored
    // columns.
    std::vector<std::string> proj = base.projection();
    rng_.shuffle(proj);
    proj.resize(1 + rng_.index(proj.size()));
    return QuerySpec::bind(catalog_, name, 1.0, base.relations(),
                           conj(std::move(where)), std::move(proj));
  }

  QuerySpec perturb_aggregate(const QuerySpec& base, const std::string& name,
                              std::vector<ExprPtr>& where) {
    std::vector<std::string> groups = base.group_by();
    if (!groups.empty() && rng_.chance(0.4)) {
      // Rollup: a strict subset of the stored grouping (possibly the
      // global aggregate). COUNT rolls up as SUM_INT of counts.
      rng_.shuffle(groups);
      groups.resize(rng_.index(groups.size()));
    }
    return QuerySpec::bind(catalog_, name, 1.0, base.relations(),
                           conj(std::move(where)), groups, groups,
                           base.aggregates());
  }

  const Catalog& catalog_;
  const Database& db_;
  const std::vector<QuerySpec>& workload_;
  Rng rng_;
  int counter_ = 0;
};

// ---- Differential rounds --------------------------------------------------

/// The three engine configurations under test, serving one design over
/// one database.
struct Servers {
  Servers(const Fixture& fx, const DesignResult& design)
      : row(fx.catalog, design, fx.db, engine_options(ExecMode::kRow)),
        vec(fx.catalog, design, fx.db, engine_options(ExecMode::kVectorized)),
        vec1(fx.catalog, design, fx.db,
             engine_options(ExecMode::kVectorized, 1)) {}

  MvServer row;
  MvServer vec;
  MvServer vec1;
};

/// >= kQueriesPerRound random queries, each answered on all three
/// engine configurations via both paths of one snapshot (published at
/// `epoch`); any disagreement fails with the offending query's text.
void fuzz_round(const Fixture& fx, Servers& servers, std::uint64_t seed,
                std::uint64_t epoch) {
  MvServer& row = servers.row;
  MvServer& vec = servers.vec;
  MvServer& vec1 = servers.vec1;
  AdhocGenerator gen(fx.catalog, fx.db, fx.workload, seed);
  int hits = 0;
  int fallbacks = 0;
  std::vector<CacheStats> before;
  std::vector<CacheStats> shapes_before;
  for (const MvServer* s : {&row, &vec, &vec1}) {
    before.push_back(s->template_cache_stats());
    shapes_before.push_back(s->shape_cache_stats());
  }
  for (int i = 0; i < kQueriesPerRound; ++i) {
    const QuerySpec q = gen.next();
    SCOPED_TRACE(fx.label + ": " + q.to_string());

    const ServeResult rh = row.serve(q);
    const ServeResult rb = row.serve(q, ServePath::kBaseOnly);
    const ServeResult vh = vec.serve(q);
    const ServeResult vb = vec.serve(q, ServePath::kBaseOnly);
    const ServeResult v1h = vec1.serve(q);
    const ServeResult v1b = vec1.serve(q, ServePath::kBaseOnly);

    // The rewrite must be invisible: hit == base on every engine.
    ASSERT_TRUE(same_bag(rh.table, rb.table)) << "row hit != row base";
    ASSERT_TRUE(same_bag(vh.table, vb.table)) << "vec hit != vec base";
    ASSERT_TRUE(same_bag(v1h.table, v1b.table)) << "vec1 hit != vec1 base";

    // Cache hit or miss, each server's decision is the matcher's on its
    // snapshot (no writer publishes during a round).
    ASSERT_EQ(decision_mismatch(row, *row.snapshot(), q, rh), "");
    ASSERT_EQ(decision_mismatch(vec, *vec.snapshot(), q, vh), "");
    ASSERT_EQ(decision_mismatch(vec1, *vec1.snapshot(), q, v1h), "");

    // The matcher is engine-independent: one decision for all three.
    ASSERT_EQ(rh.rewritten, vh.rewritten);
    ASSERT_EQ(rh.rewritten, v1h.rewritten);
    ASSERT_EQ(rh.view, vh.view);
    ASSERT_EQ(rh.view, v1h.view);

    // Cross-engine agreement: row is bag-equal to the vectorized engine;
    // vec at one and two threads is bit-identical (same plan, fixed
    // morsels merged in morsel order).
    ASSERT_TRUE(same_bag(rh.table, vh.table)) << "row != vectorized";
    ASSERT_TRUE(exactly_equal(vh.table, v1h.table)) << "vec 2t != 1t (hit)";
    ASSERT_TRUE(exactly_equal(vb.table, v1b.table)) << "vec 2t != 1t (base)";

    // The same query as SQL text, through the shape cache: vec1 binds it
    // first (the spec must be parse_adhoc's in every field), then every
    // server serves the text, which must answer and route like the spec.
    const std::string sql = q.to_sql();
    const QuerySpec text_q = parse_adhoc(fx.catalog, sql);
    ASSERT_EQ(spec_mismatch(vec1.bind(sql), text_q), "") << sql;
    for (MvServer* s : {&row, &vec, &vec1}) {
      const ServeResult& by_spec = s == &row ? rh : s == &vec ? vh : v1h;
      const ServeResult by_text = s->serve(sql);
      ASSERT_TRUE(same_bag(by_text.table, by_spec.table)) << sql;
      ASSERT_EQ(decision_mismatch(*s, *s->snapshot(), text_q, by_text), "")
          << sql;
      ASSERT_EQ(by_text.rewritten, by_spec.rewritten) << sql;
      ASSERT_EQ(by_text.view, by_spec.view) << sql;
    }

    // ExecStats sanity: the base path always scans real blocks; no
    // writer publishes during a round.
    ASSERT_GT(rb.stats.blocks_read, 0u);
    ASSERT_GT(rb.stats.rows_scanned, 0u);
    ASSERT_EQ(rh.epoch, epoch);
    if (rh.rewritten) {
      ++hits;
      ASSERT_FALSE(rh.view.empty());
    } else {
      ++fallbacks;
      ASSERT_FALSE(rh.refusal.empty());
    }
  }

  // Most perturbations stay inside a view; the widened ones must not.
  EXPECT_GE(hits, kQueriesPerRound / 4) << fx.label;

  // Every round both reuses template decisions and makes new ones, and
  // serves some text by a shape an earlier request bound (row and vec
  // serve each text once; vec1 also binds it first).
  for (std::size_t k = 0; k < before.size(); ++k) {
    const MvServer& s = k == 0 ? row : k == 1 ? vec : vec1;
    const CacheStats after = s.template_cache_stats();
    EXPECT_GT(after.hits, before[k].hits) << fx.label << " server " << k;
    EXPECT_GT(after.misses, before[k].misses) << fx.label << " server " << k;
    EXPECT_GT(s.shape_cache_stats().hits, shapes_before[k].hits)
        << fx.label << " server " << k;
    ::testing::Test::RecordProperty(
        fx.label + "_cache_hits" + std::to_string(k),
        static_cast<int>(after.hits - before[k].hits));
  }
  ::testing::Test::RecordProperty(fx.label + "_hits", hits);
  ::testing::Test::RecordProperty(fx.label + "_fallbacks", fallbacks);

  // Every recorded rewrite is re-checkable evidence.
  for (const RewriteRecord& r : row.rewrite_log()) {
    ASSERT_TRUE(implies(r.query_pred, r.view_pred, r.joint))
        << r.query << " -> " << r.view;
  }
}

void run_differential_round(const Fixture& fx, std::uint64_t seed) {
  Servers servers(fx, covered_design(fx.catalog, fx.workload));
  fuzz_round(fx, servers, seed, 0);
}

TEST(ServeFuzzTest, StarSchemaDifferential) {
  run_differential_round(star_fixture(), 0xfacade01);
}

TEST(ServeFuzzTest, PartitionedStarDifferential) {
  const Fixture fx = partitioned_star_fixture();
  Servers servers(fx, covered_design(fx.catalog, fx.workload));
  fuzz_round(fx, servers, 0xfacade04, 0);
  // One writer round on the fact and a dimension, each batch refreshed
  // incrementally in the same publish; then the differential again.
  for (MvServer* server : {&servers.row, &servers.vec, &servers.vec1}) {
    Rng rng(0xfacade05);
    for (const char* relation : {"Fact", "Dim0"}) {
      server->update_and_refresh(relation, UpdateStreamOptions{}, rng,
                                 RefreshMode::kIncremental);
    }
    ASSERT_TRUE(server->snapshot()->db->is_partitioned("Fact"));
  }
  fuzz_round(fx, servers, 0xfacade06, 2);
}

TEST(ServeFuzzTest, ChainSchemaDifferential) {
  run_differential_round(chain_fixture(), 0xfacade02);
}

TEST(ServeFuzzTest, PaperSchemaDifferential) {
  run_differential_round(paper_fixture(), 0xfacade03);
}

// ---- Adversarial near-misses ----------------------------------------------

/// Widen one numeric bound by a single step — the smallest change that
/// admits a row the view discarded.
ExprPtr widen_comparison(const ExprPtr& e) {
  if (e == nullptr || e->kind() != ExprKind::kComparison) return nullptr;
  const auto& c = static_cast<const ComparisonExpr&>(*e);
  if (c.lhs()->kind() != ExprKind::kColumn ||
      c.rhs()->kind() != ExprKind::kLiteral) {
    return nullptr;
  }
  const Value& v = static_cast<const LiteralExpr&>(*c.rhs()).value();
  if (v.type() != ValueType::kInt64) return nullptr;
  switch (c.op()) {
    case CompareOp::kGt:
    case CompareOp::kGe:
      return cmp(c.op(), c.lhs(), lit_i64(v.as_int64() - 1));
    case CompareOp::kLt:
    case CompareOp::kLe:
      return cmp(c.op(), c.lhs(), lit_i64(v.as_int64() + 1));
    default:
      return nullptr;
  }
}

QuerySpec rebind(const Catalog& catalog, const QuerySpec& base,
                 const std::string& name, const std::vector<ExprPtr>& where,
                 std::vector<std::string> relations,
                 std::vector<std::string> select_list) {
  return QuerySpec::bind(catalog, name, 1.0, std::move(relations),
                         conj(std::vector<ExprPtr>(where)),
                         std::move(select_list), base.group_by(),
                         base.aggregates());
}

/// For every workload query, derive near-miss variants that sit just
/// outside its covering view and assert the matcher refuses each one.
void run_near_misses(const Fixture& fx) {
  const DesignResult design = covered_design(fx.catalog, fx.workload);
  const MvppGraph& g = design.graph();
  const DeployedViewRegistry registry(g, design.selection.materialized,
                                      fx.db);
  int refused = 0;

  for (const NodeId qid : g.query_ids()) {
    const MvppNode& view_node = g.node(g.node(qid).children[0]);
    const DeployedView* deployed = registry.find(view_node.name);
    ASSERT_NE(deployed, nullptr) << view_node.name;
    const ViewDef& view = deployed->def;
    if (!view.matchable) continue;

    const auto it = std::find_if(
        fx.workload.begin(), fx.workload.end(),
        [&](const QuerySpec& q) { return q.name() == g.node(qid).name; });
    ASSERT_NE(it, fx.workload.end());
    const QuerySpec& base = *it;
    // The unperturbed template must match its own view — the near-miss
    // refusals below are meaningful only against a matching baseline.
    std::string why;
    ASSERT_TRUE(match_query_to_view(base, view, fx.catalog, &why).has_value())
        << fx.label << "/" << base.name() << ": " << why;

    std::vector<ExprPtr> joins;
    for (const JoinPredicate& j : base.joins()) joins.push_back(j.expr());
    const std::vector<std::string> select_list =
        base.has_aggregation() ? base.group_by() : base.projection();

    // (a) Predicate widened one step past the view's boundary: the
    // widened query admits rows the view discarded, so containment must
    // fail even though every column still exists in the view.
    for (std::size_t i = 0; i < base.selections().size(); ++i) {
      const ExprPtr widened = widen_comparison(base.selections()[i]);
      if (widened == nullptr) continue;
      std::vector<ExprPtr> where = joins;
      for (std::size_t j = 0; j < base.selections().size(); ++j) {
        where.push_back(j == i ? widened : base.selections()[j]);
      }
      const QuerySpec q = rebind(fx.catalog, base, base.name() + "_widened",
                                 where, base.relations(), select_list);
      EXPECT_FALSE(match_query_to_view(q, view, fx.catalog, &why).has_value())
          << fx.label << ": widened " << widened->to_string()
          << " wrongly matched " << view.name;
      ++refused;
    }

    // (b) An extra FROM relation: relation sets differ, no rewrite.
    std::vector<ExprPtr> where = joins;
    for (const ExprPtr& s : base.selections()) where.push_back(s);
    for (const std::string& r : fx.catalog.relation_names()) {
      if (std::find(base.relations().begin(), base.relations().end(), r) !=
          base.relations().end()) {
        continue;
      }
      std::vector<std::string> relations = base.relations();
      relations.push_back(r);
      const QuerySpec q = rebind(fx.catalog, base, base.name() + "_extra_rel",
                                 where, std::move(relations), select_list);
      EXPECT_FALSE(match_query_to_view(q, view, fx.catalog, &why).has_value());
      EXPECT_EQ(why, "relation sets differ") << fx.label;
      ++refused;
      break;
    }

    // (c) A grouping (aggregate views) or projection (SPJ views) column
    // the view never stored.
    const Schema joint = joint_base_schema(fx.catalog, view.relations);
    std::string unstored;
    for (const Attribute& a : joint.attributes()) {
      if (!view.output.contains(a.qualified())) {
        unstored = a.qualified();
        break;
      }
    }
    if (unstored.empty()) continue;
    if (base.has_aggregation()) {
      std::vector<std::string> groups = base.group_by();
      groups.push_back(unstored);
      const QuerySpec q = QuerySpec::bind(
          fx.catalog, base.name() + "_finer", 1.0, base.relations(),
          conj(std::vector<ExprPtr>(where)), groups, groups,
          base.aggregates());
      EXPECT_FALSE(match_query_to_view(q, view, fx.catalog, &why).has_value());
      EXPECT_EQ(why, "grouping column not stored") << fx.label;
    } else {
      std::vector<std::string> proj = base.projection();
      proj.push_back(unstored);
      const QuerySpec q = QuerySpec::bind(
          fx.catalog, base.name() + "_wide_proj", 1.0, base.relations(),
          conj(std::vector<ExprPtr>(where)), proj);
      EXPECT_FALSE(match_query_to_view(q, view, fx.catalog, &why).has_value());
      EXPECT_EQ(why, "projection column not stored") << fx.label;
    }
    ++refused;
  }

  EXPECT_GT(refused, 0) << fx.label << ": no near-miss variant derived";
}

TEST(ServeFuzzTest, StarNearMissesRefuse) { run_near_misses(star_fixture()); }

TEST(ServeFuzzTest, PartitionedStarNearMissesRefuse) {
  run_near_misses(partitioned_star_fixture());
}

TEST(ServeFuzzTest, ChainNearMissesRefuse) {
  run_near_misses(chain_fixture());
}

TEST(ServeFuzzTest, PaperNearMissesRefuse) {
  run_near_misses(paper_fixture());
}

}  // namespace
}  // namespace mvd
