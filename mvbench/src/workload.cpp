#include "mvbench/src/workload.hpp"

#include <algorithm>

#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvbench {

namespace {

using mvd::Rng;

// ---- The paper warehouse (Table 1 relations, the four Section 2 queries).

std::string paper_city(std::int64_t c) {
  if (c == 0) return "LA";
  if (c == 1) return "SF";
  return "city_" + std::to_string(c);
}

std::string q1_sql(std::int64_t pid) {
  return "SELECT Product.name FROM Product, Division "
         "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
         "AND Product.Pid > " +
         std::to_string(pid);
}

std::string q4_sql(std::int64_t quantity, const std::string& city) {
  return "SELECT Customer.city, date FROM Order, Customer "
         "WHERE quantity > " +
         std::to_string(quantity) +
         " AND Order.Cid = Customer.Cid AND Customer.city = '" + city + "'";
}

mvd::SiteTopology three_sites(const mvd::Catalog& catalog,
                              const std::vector<DeclaredQuery>& declared) {
  const std::vector<std::string> sites{"s0", "s1", "s2"};
  mvd::SiteTopology topology(sites);
  std::size_t i = 0;
  for (const std::string& rel : catalog.relation_names()) {
    topology.place_relation(rel, sites[i++ % sites.size()]);
  }
  i = 0;
  for (const DeclaredQuery& q : declared) {
    topology.place_query(q.name, sites[i++ % sites.size()]);
  }
  return topology;
}

/// Scale 0.1 holds 3k/500/5k/2k/8k rows (18.5k base rows).
Warehouse paper_warehouse(bool smoke) {
  Warehouse w;
  w.catalog = mvd::make_paper_catalog();
  w.designer.cost = mvd::paper_cost_config();
  w.designer.algorithm = mvd::DesignerOptions::Algorithm::kYang;
  w.declared = {
      {"Q1", 10.0,
       "SELECT Product.name FROM Product, Division "
       "WHERE Division.city = 'LA' AND Product.Did = Division.Did"},
      {"Q2", 0.5,
       "SELECT Part.name FROM Product, Part, Division "
       "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
       "AND Part.Pid = Product.Pid"},
      {"Q3", 0.8,
       "SELECT Customer.name, Product.name, quantity "
       "FROM Product, Division, Order, Customer "
       "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
       "AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid "
       "AND date > DATE '1996-07-01'"},
      {"Q4", 5.0,
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 100 AND Order.Cid = Customer.Cid"},
  };
  w.db = mvd::populate_paper_database(smoke ? 0.02 : 0.1, 17);
  w.serve.mode = mvd::ExecMode::kVectorized;
  w.serve.threads = 1;
  w.serve.rewrite = true;
  w.serve.observe = true;
  w.refresh = mvd::RefreshMode::kIncremental;
  // Equal insert and delete fractions keep every table at its size.
  w.updates.modify_fraction = 0.005;
  w.updates.insert_fraction = 0.005;
  w.updates.delete_fraction = 0.005;
  w.update_relations = w.catalog.relation_names();
  w.topology = three_sites(w.catalog, w.declared);
  return w;
}

/// Q1's shape with a Product.Pid residual; answered from the Fig. 9
/// heuristic's Product ⋈ σ_LA Division view.
QueryTemplate q1_shape(std::int64_t products) {
  return {"Q1", 10.0, "",
          [products](Rng& rng) {
            return q1_sql(rng.uniform_int(0, products - 1));
          },
          Route::kView};
}

/// Q4's shape with quantity and city residuals; quantity stays above 100
/// so the Order ⋈ Customer view (σ date OR quantity > 100) still covers.
QueryTemplate q4_shape() {
  return {"Q4", 5.0, "",
          [](Rng& rng) {
            const std::int64_t quantity = rng.uniform_int(100, 199);
            return q4_sql(quantity, paper_city(rng.uniform_int(0, 49)));
          },
          Route::kView};
}

std::int64_t paper_products(const Warehouse& w) {
  return static_cast<std::int64_t>(w.db.table("Product").row_count());
}

Warehouse make_serve_covered(bool smoke) {
  Warehouse w = paper_warehouse(smoke);
  w.templates = {q1_shape(paper_products(w)), q4_shape()};
  return w;
}

Warehouse make_write_mix(bool smoke) {
  Warehouse w = paper_warehouse(smoke);
  QueryTemplate q2{"Q2", 0.5, "",
                   [](Rng& rng) {
                     return "SELECT Part.name FROM Product, Part, Division "
                            "WHERE Division.city = '" +
                            paper_city(rng.uniform_int(0, 49)) +
                            "' AND Product.Did = Division.Did "
                            "AND Part.Pid = Product.Pid";
                   },
                   Route::kBase};
  QueryTemplate q3{"Q3", 0.8, "",
                   [](Rng& rng) {
                     const std::int64_t month = rng.uniform_int(6, 7);
                     const std::int64_t day = rng.uniform_int(10, 30);
                     return "SELECT Customer.name, Product.name, quantity "
                            "FROM Product, Division, Order, Customer "
                            "WHERE Division.city = '" +
                            paper_city(rng.uniform_int(0, 49)) +
                            "' AND Product.Did = Division.Did "
                            "AND Product.Pid = Order.Pid "
                            "AND Order.Cid = Customer.Cid "
                            "AND date > DATE '1996-0" +
                            std::to_string(month) + "-" +
                            std::to_string(day) + "'";
                   },
                   Route::kBase};
  w.templates = {q1_shape(paper_products(w)), std::move(q2), std::move(q3),
                 q4_shape()};
  return w;
}

// ---- Star warehouses with generated query templates.

struct StarShape {
  std::vector<std::size_t> dims;           // joined dimensions, sorted
  std::vector<std::size_t> category_dims;  // dimensions with a literal
  bool measure = false;                    // Fact.measure > literal
  bool rollup = false;  // GROUP BY first dimension's category, SUM + COUNT
};

struct StarLiterals {
  std::vector<std::int64_t> categories;  // one per category_dims entry
  std::int64_t cut = 0;
};

std::vector<StarShape> star_shapes(std::size_t count, std::size_t dimensions,
                                   std::size_t min_dims, std::size_t max_dims,
                                   std::size_t rollup_every,
                                   std::uint64_t structure_seed) {
  Rng rng(structure_seed);
  std::vector<StarShape> shapes;
  for (std::size_t i = 0; i < count; ++i) {
    StarShape s;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(min_dims),
                        static_cast<std::int64_t>(max_dims)));
    std::vector<std::size_t> all(dimensions);
    for (std::size_t d = 0; d < dimensions; ++d) all[d] = d;
    rng.shuffle(all);
    all.resize(k);
    std::sort(all.begin(), all.end());
    s.dims = all;
    for (const std::size_t d : s.dims) {
      if (rng.chance(0.6)) s.category_dims.push_back(d);
    }
    s.measure = rng.chance(0.5);
    if (s.category_dims.empty() && !s.measure) {
      s.category_dims.push_back(s.dims.front());
    }
    s.rollup = i % rollup_every == 0;
    shapes.push_back(std::move(s));
  }
  return shapes;
}

StarLiterals draw_literals(const StarShape& s,
                           const mvd::StarSchemaOptions& schema, Rng& rng) {
  StarLiterals lit;
  for (std::size_t i = 0; i < s.category_dims.size(); ++i) {
    lit.categories.push_back(
        rng.uniform_int(0, static_cast<std::int64_t>(schema.categories) - 1));
  }
  lit.cut = rng.uniform_int(
      1, static_cast<std::int64_t>(schema.measure_range) / 2);
  return lit;
}

std::string star_sql(const StarShape& s, const StarLiterals& lit) {
  auto dim = [](std::size_t d) { return "Dim" + std::to_string(d); };
  std::string from = "Fact";
  std::string where;
  for (const std::size_t d : s.dims) {
    from += ", " + dim(d);
    if (!where.empty()) where += " AND ";
    where += "Fact.d" + std::to_string(d) + " = " + dim(d) + ".id";
  }
  for (std::size_t i = 0; i < s.category_dims.size(); ++i) {
    where += " AND " + dim(s.category_dims[i]) + ".category = 'cat_" +
             std::to_string(lit.categories[i]) + "'";
  }
  if (s.measure) where += " AND Fact.measure > " + std::to_string(lit.cut);
  if (s.rollup) {
    const std::string group = dim(s.dims.front()) + ".category";
    return "SELECT " + group + ", SUM(Fact.measure), COUNT(*) FROM " + from +
           " WHERE " + where + " GROUP BY " + group;
  }
  std::string select = "Fact.measure";
  for (const std::size_t d : s.dims) select += ", " + dim(d) + ".label";
  return "SELECT " + select + " FROM " + from + " WHERE " + where;
}

/// Declares one query per shape (fq = 10 / rank) with literals drawn from
/// `declared_rng`; requests re-draw them from the stream's Rng.
void add_star_templates(Warehouse& w, const std::vector<StarShape>& shapes,
                        const mvd::StarSchemaOptions& schema,
                        Rng& declared_rng) {
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    std::string name = "Q";
    name += std::to_string(i + 1);
    const double fq = 10.0 / static_cast<double>(i + 1);
    const StarShape shape = shapes[i];
    const std::string sql =
        star_sql(shape, draw_literals(shape, schema, declared_rng));
    w.declared.push_back({name, fq, sql});
    w.templates.push_back(
        {name, fq, sql,
         [shape, schema](Rng& rng) {
           return star_sql(shape, draw_literals(shape, schema, rng));
         },
         Route::kAny});
  }
}

/// 6 dimensions x 1k rows, 20k fact rows; 12 declared queries, every third
/// a rollup, joining 1-4 dimensions.
Warehouse make_design(bool smoke) {
  mvd::StarSchemaOptions schema;
  schema.dimensions = 6;
  schema.fact_rows = smoke ? 2'000 : 20'000;
  schema.dimension_rows = smoke ? 100 : 1'000;
  Warehouse w;
  w.catalog = mvd::make_star_catalog(schema);
  w.designer.algorithm = mvd::DesignerOptions::Algorithm::kYang;
  w.db = mvd::populate_star_database(schema, 11);
  w.serve.mode = mvd::ExecMode::kVectorized;
  w.serve.threads = 1;
  w.serve.rewrite = true;
  w.serve.observe = true;
  w.refresh = mvd::RefreshMode::kIncremental;
  w.updates.modify_fraction = 0.005;
  w.updates.insert_fraction = 0.005;
  w.updates.delete_fraction = 0.005;
  w.update_relations = w.catalog.relation_names();
  w.alternate_declared = true;
  Rng declared(101);
  add_star_templates(w, star_shapes(12, 6, 1, 4, 3, 5), schema, declared);
  w.topology = three_sites(w.catalog, w.declared);
  return w;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Main-phase rates size each main phase to about --seconds of wall time
  // on a 4-core x86-64 host. Side phases are fixed op counts spread over
  // the run's 40 rounds. Every count is large enough for its tail to be a
  // p90 or higher, except design's updates (~0.2 s each): updates
  // alternate between relations whose costs differ, so every relation
  // gets the same number of them, and design's seven relations get three.
  static const std::vector<Workload> all = {
      // name, main, rate, setups, design_ops, queries, updates, clients,
      // warmup, gate
      {"serve_covered", MainPhase::kQueries, 12'000, 40, 120, 0, 200, 2,
       4'000, 60, make_serve_covered},
      {"write_mix", MainPhase::kMixed, 500, 40, 120, 0, 0, 1, 200, 40,
       make_write_mix},
      {"design", MainPhase::kDesign, 12, 9, 0, 300, 21, 1, 50, 24,
       make_design},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::size_t> apportion(const std::vector<double>& weights,
                                   std::size_t count) {
  double total = 0;
  for (const double w : weights) total += w;
  std::vector<double> current(weights.size(), 0.0);
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && !weights.empty(); ++i) {
    std::size_t pick = 0;
    for (std::size_t j = 0; j < weights.size(); ++j) {
      current[j] += weights[j];
      if (current[j] > current[pick]) pick = j;
    }
    current[pick] -= total;
    out.push_back(pick);
  }
  return out;
}

namespace {

Op query_op(const Warehouse& w, std::size_t tmpl,
            std::vector<std::size_t>& issued, Rng& rng) {
  const QueryTemplate& t = w.templates[tmpl];
  Op op;
  op.tmpl = tmpl;
  op.declared = w.alternate_declared && !t.declared_sql.empty() &&
                issued[tmpl]++ % 2 == 0;
  op.sql = op.declared ? t.declared_sql : t.draw(rng);
  return op;
}

Op update_op(const Warehouse& w, std::size_t index, Rng& rng) {
  Op op;
  op.update = true;
  op.relation = w.update_relations[index % w.update_relations.size()];
  op.seed = rng.next_u64();
  return op;
}

}  // namespace

std::vector<Op> query_stream(const Warehouse& w, std::size_t count,
                             Rng& rng) {
  std::vector<double> fq;
  for (const QueryTemplate& t : w.templates) fq.push_back(t.fq);
  std::vector<std::size_t> issued(w.templates.size(), 0);
  std::vector<Op> ops;
  ops.reserve(count);
  for (const std::size_t k : apportion(fq, count)) {
    ops.push_back(query_op(w, k, issued, rng));
  }
  return ops;
}

std::vector<Op> update_stream(const Warehouse& w, std::size_t count,
                              Rng& batches) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(update_op(w, i, batches));
  }
  return ops;
}

std::vector<Op> mixed_stream(const Warehouse& w, std::size_t count,
                             Rng& literals, Rng& batches) {
  // Index 0 is the loader (Σ fu over the updated relations); the rest are
  // the query templates by fq.
  std::vector<double> weights{0.0};
  for (const std::string& rel : w.update_relations) {
    weights[0] += w.catalog.update_frequency(rel);
  }
  for (const QueryTemplate& t : w.templates) weights.push_back(t.fq);
  std::vector<std::size_t> issued(w.templates.size(), 0);
  std::size_t updates = 0;
  std::vector<Op> ops;
  ops.reserve(count);
  for (const std::size_t k : apportion(weights, count)) {
    ops.push_back(k == 0 ? update_op(w, updates++, batches)
                         : query_op(w, k - 1, issued, literals));
  }
  return ops;
}

}  // namespace mvbench
