// Retail star-schema walkthrough: generate a synthetic retail warehouse
// (fact table + dimensions), design views, deploy them over real data,
// answer the workload from the deployed warehouse and verify against
// from-scratch evaluation, then apply update batches and refresh. Exits 1
// when an answer or the post-refresh check disagrees with the scratch run.
#include <iostream>

#include "src/common/random.hpp"
#include "src/common/units.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"

int main() {
  using namespace mvd;

  // 1. A populated retail warehouse: Fact(sales) x 4 dimensions.
  StarSchemaOptions schema;
  schema.dimensions = 4;
  schema.fact_rows = 20'000;
  schema.dimension_rows = 500;
  schema.categories = 10;
  Database db = populate_star_database(schema, 2026);
  std::cout << "populated " << db.table("Fact").row_count()
            << " fact rows across " << schema.dimensions << " dimensions\n";

  // 2. Catalog statistics computed from the actual data.
  Catalog catalog = catalog_from_database(db, schema.blocking_factor);

  // 3. A skewed query workload (Zipf frequencies).
  WarehouseDesigner designer(std::move(catalog));
  StarQueryOptions qopts;
  qopts.count = 6;
  qopts.max_dimensions = 3;
  qopts.seed = 42;
  for (QuerySpec& q : generate_star_queries(designer.catalog(), schema, qopts)) {
    std::cout << "  " << q.to_string() << '\n';
    designer.add_query(std::move(q));
  }

  // 4. Design and report.
  const DesignResult design = designer.design();
  std::cout << '\n' << designer.report(design) << '\n';

  // 5. Deploy the chosen views and answer the workload from them.
  designer.deploy(design, db);
  const Executor scratch_exec(db);
  bool ok = true;
  for (const QuerySpec& q : designer.queries()) {
    ExecStats with_views;
    const Table answer = designer.answer(design, q.name(), db, &with_views);
    ExecStats from_scratch;
    const Table expected =
        scratch_exec.run(canonical_plan(designer.catalog(), q), &from_scratch);
    const bool match = same_bag(answer, expected);
    ok = ok && match;
    std::cout << q.name() << ": " << answer.row_count() << " rows, "
              << format_blocks(with_views.blocks_read)
              << " blocks via views vs "
              << format_blocks(from_scratch.blocks_read) << " from scratch ("
              << (match ? "answers match" : "ANSWERS DIFFER!")
              << ")\n";
  }

  // 6. A day of updates, then refresh.
  Rng rng(7);
  std::size_t touched = 0;
  for (const char* table : {"Fact", "Dim0", "Dim2"}) {
    touched += apply_update_batch(db, table, {}, rng);
  }
  designer.refresh(design, db);
  std::cout << "\napplied " << touched
            << " row updates and refreshed the views; re-checking Q1: ";
  const Table after = designer.answer(design, "Q1", db);
  const Table expected = Executor(db).run(
      canonical_plan(designer.catalog(), designer.queries().front()));
  const bool consistent = same_bag(after, expected);
  std::cout << (consistent ? "consistent" : "INCONSISTENT") << '\n';
  return ok && consistent ? 0 : 1;
}
