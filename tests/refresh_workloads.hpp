// The warehouses the refresh tests drive: a generated star with
// aggregate queries, a generated join chain, the paper's Figure 3
// example and a small star whose aggregate views reach every grouped
// maintenance case, each designed and paired with the relations its
// update rounds rotate through.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/expr.hpp"
#include "src/algebra/query_spec.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {

struct RefreshWorkload {
  WarehouseDesigner designer;
  DesignResult design;
  Database db;
  std::vector<std::string> update_relations;
};

inline RefreshWorkload make_star_workload() {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = 3'000;
  schema.dimension_rows = 200;
  schema.categories = 6;
  Database db = populate_star_database(schema, 11);
  Catalog catalog = catalog_from_database(db, schema.blocking_factor);
  StarQueryOptions qopts;
  qopts.count = 6;
  qopts.max_dimensions = 2;
  qopts.aggregation_probability = 0.5;  // exercise grouped delta apply
  qopts.seed = 7;
  WarehouseDesigner designer(catalog);
  for (QuerySpec& q : generate_star_queries(catalog, schema, qopts)) {
    designer.add_query(std::move(q));
  }
  DesignResult design = designer.design();
  return {std::move(designer), std::move(design), std::move(db),
          {"Fact", "Dim0", "Dim1"}};
}

inline RefreshWorkload make_chain_workload() {
  ChainSchemaOptions schema;
  schema.length = 4;
  schema.rows = 1'500;
  Database db = populate_chain_database(schema, 13);
  Catalog catalog = make_chain_catalog(schema);
  ChainQueryOptions qopts;
  qopts.count = 5;
  qopts.seed = 3;
  WarehouseDesigner designer(catalog);
  for (QuerySpec& q : generate_chain_queries(catalog, schema, qopts)) {
    designer.add_query(std::move(q));
  }
  DesignResult design = designer.design();
  return {std::move(designer), std::move(design), std::move(db),
          {"R0", "R1", "R2", "R3"}};
}

inline RefreshWorkload make_paper_workload() {
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  for (const QuerySpec& q : make_paper_example().queries) {
    designer.add_query(q);
  }
  DesignResult design = designer.design();
  return {std::move(designer), std::move(design),
          populate_paper_database(0.02, 23),
          {"Order", "Division", "Product", "Customer"}};
}

/// Each round modifies 1%, inserts 1% and deletes 0.5% of a relation.
inline UpdateStreamOptions mixed_updates() {
  UpdateStreamOptions opts;
  opts.modify_fraction = 0.01;
  opts.insert_fraction = 0.01;
  opts.delete_fraction = 0.005;
  return opts;
}

/// A 400-row fact and two 20-row dimensions whose aggregate views take
/// every branch of the grouped +/- apply. A batch perturbs a relation's
/// first int64 column (Fact.fid, Dim.id), so the fid-grained view gains
/// and drains groups, dimension rows move between join partners, and
/// rows move in and out of the one-row `Dim1.id = 7` and the empty
/// `Dim1.id < 0` filters. The views:
///   A1  fine groups (Fact.fid): COUNT, SUM + AVG of one column, SUM_INT
///   A2  coarse groups: COUNT, SUM + AVG, MIN and MAX
///   A3  global COUNT, SUM + AVG over `Dim1.id = 7` (empties)
///   A4  global COUNT, MIN and MAX over `Dim1.id < 0` (fills from the
///       empty-input placeholder row)
///   A5  MIN and MAX without a COUNT (insert-only)
///   A6  AVG without a same-column SUM (never self-maintainable)
///   A7  an aggregate over a cross product filtered above the join; the
///       product is stored too, so its recompute feeds A7 a diffed delta
///   A8  global COUNT, MIN and MAX over a whole dimension, whose
///       extremes move with the perturbed ids
/// Run it with aggregate_updates(): the dimensions are too small for
/// mixed_updates() to change a row.
inline RefreshWorkload make_aggregate_workload() {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 400;
  schema.dimension_rows = 20;
  schema.categories = 3;
  schema.measure_range = 40;
  Database db = populate_star_database(schema, 17);
  Catalog catalog = catalog_from_database(db, schema.blocking_factor);
  WarehouseDesigner designer(catalog);
  // The SQL grammar has no SUM_INT; bind it directly.
  designer.add_query(QuerySpec::bind(
      catalog, "A1", 6, {"Fact", "Dim0"},
      eq(col("Fact.d0"), col("Dim0.id")), {"Fact.fid"}, {"Fact.fid"},
      {{AggFn::kCount, "", "n"},
       {AggFn::kSum, "Fact.amount", "total"},
       {AggFn::kAvg, "Fact.amount", "mean"},
       {AggFn::kSumInt, "Fact.measure", "units"}}));
  designer.add_query(
      "A2", 5,
      "SELECT Dim0.category, COUNT(*), SUM(Fact.amount), AVG(Fact.amount), "
      "MIN(Fact.amount), MAX(Fact.amount), MIN(Fact.fid), MAX(Fact.fid) "
      "FROM Fact, Dim0 WHERE Fact.d0 = Dim0.id GROUP BY Dim0.category");
  designer.add_query("A3", 4,
                     "SELECT COUNT(*), SUM(Dim1.weight), AVG(Dim1.weight) "
                     "FROM Dim1 WHERE Dim1.id = 7");
  designer.add_query("A4", 4,
                     "SELECT COUNT(*), MIN(Dim1.weight), MAX(Dim1.label) "
                     "FROM Dim1 WHERE Dim1.id < 0");
  designer.add_query("A5", 3,
                     "SELECT Fact.d1, MIN(Fact.amount), MAX(Fact.fid) "
                     "FROM Fact, Dim1 WHERE Fact.d1 = Dim1.id "
                     "GROUP BY Fact.d1");
  designer.add_query("A6", 3,
                     "SELECT Dim1.category, COUNT(*), AVG(Fact.amount), "
                     "SUM(Fact.measure) FROM Fact, Dim1 "
                     "WHERE Fact.d1 = Dim1.id GROUP BY Dim1.category");
  designer.add_query("A7", 2,
                     "SELECT Dim0.category, COUNT(*), SUM(Dim1.weight), "
                     "AVG(Dim1.weight) FROM Dim0, Dim1 "
                     "WHERE Dim0.weight < Dim1.weight GROUP BY Dim0.category");
  designer.add_query("A8", 2,
                     "SELECT COUNT(*), MIN(Dim0.id), MAX(Dim0.id) FROM Dim0");
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kJoin) continue;
    const std::vector<ExprPtr> conjuncts = conjuncts_of(n.predicate);
    if (std::none_of(conjuncts.begin(), conjuncts.end(),
                     [](const ExprPtr& c) {
                       return as_column_equality(c).has_value();
                     })) {
      design.selection.materialized.insert(n.id);
    }
  }
  return {std::move(designer), std::move(design), std::move(db),
          {"Fact", "Dim0", "Dim1"}};
}

/// Each round modifies 10%, inserts 5% and deletes 5% of a relation: two
/// modified rows, one inserted and one deleted in a 20-row dimension.
inline UpdateStreamOptions aggregate_updates() {
  UpdateStreamOptions opts;
  opts.modify_fraction = 0.1;
  opts.insert_fraction = 0.05;
  opts.delete_fraction = 0.05;
  return opts;
}

}  // namespace mvd
