// The warehouses the refresh tests drive: a generated star with
// aggregate queries, a generated join chain and the paper's Figure 3
// example, each designed and paired with the relations its update rounds
// rotate through.
#pragma once

#include <string>
#include <utility>
#include <vector>

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

}  // namespace mvd
