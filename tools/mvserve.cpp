// mvserve — the serving front door over a designed warehouse.
//
// Deploys the paper workload's materialized set over a populated
// database, then answers SQL by rewriting onto the cheapest covering
// view (falling back to base tables when no view qualifies).
//
//   mvserve                     demo: serve the four workload queries and
//                               a few ad-hoc variants, then an
//                               ingest/refresh cycle with view statuses
//   mvserve --sql "SELECT ..."  serve one query and print the result
//   mvserve --base              with --sql: force the base-table path
//   mvserve --scale S           database scale (default 0.02)
//   mvserve --repl              one query per stdin line until EOF
//   mvserve --selftest          covered queries must rewrite, uncovered
//                               and near-miss ones must refuse, and every
//                               answer must equal the base-table answer;
//                               each case's twin (a fresh literal inside
//                               the first serve's guard) must hit the
//                               template cache with the same route, and
//                               the q4 boundary pair must keep its routes
//                               in either order
//
// Exit status: 0 ok, 1 self-test failure or serve error, 2 usage.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/exec/executor.hpp"
#include "src/serve/server.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace {

using namespace mvd;

int usage(const std::string& problem) {
  std::cerr << "mvserve: " << problem << "\n"
            << "usage: mvserve [--sql QUERY] [--base] [--scale S]\n"
            << "               [--repl] [--selftest]\n";
  return 2;
}

/// The paper warehouse with every workload query's result node
/// materialized — each registered query has a covering view.
MvServer make_server(double scale) {
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  const PaperExample example = make_paper_example();
  for (const QuerySpec& q : example.queries) designer.add_query(q);
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    design.selection.materialized.insert(g.node(q).children[0]);
  }
  return MvServer(example.catalog, design,
                  populate_paper_database(scale));
}

void print_route(const ServeResult& r) {
  if (r.rewritten) {
    std::cout << "  route: view " << r.view;
  } else {
    std::cout << "  route: base tables"
              << (r.refusal.empty() ? "" : " (" + r.refusal + ")");
  }
  std::cout << "  rows: " << r.table.row_count() << "  epoch: " << r.epoch
            << "  latency: " << r.latency_ms << " ms\n";
}

int serve_one(MvServer& server, const std::string& sql, ServePath path) {
  try {
    const ServeResult r = server.serve(sql, path);
    std::cout << r.table.preview() << "\n";
    print_route(r);
    return 0;
  } catch (const Error& e) {
    std::cerr << "mvserve: " << e.what() << "\n";
    return 1;
  }
}

int repl(MvServer& server) {
  std::string line;
  int status = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    status = serve_one(server, line, ServePath::kAuto) == 0 ? status : 1;
  }
  return status;
}

// ---- self-test -------------------------------------------------------------

struct ServeCase {
  std::string name;
  std::string sql;
  bool expect_rewrite;
  /// The same template with a fresh literal inside the first serve's
  /// guard; where the guard pins every literal, the same literals in
  /// another FROM/WHERE order.
  std::string twin;
};

/// Serve `sql` through the rewriter and the base path on one snapshot;
/// "ok" or what went wrong. `hit` receives whether the serve reused a
/// template-cache entry.
std::string check_serve(MvServer& server, const std::string& sql,
                        bool expect_rewrite, ServeResult& hit_out,
                        bool& hit) {
  try {
    const auto snap = server.snapshot();
    const QuerySpec q = server.bind(sql);
    const std::uint64_t hits = server.template_cache_stats().hits;
    hit_out = server.serve_on(snap, q);
    hit = server.template_cache_stats().hits > hits;
    const ServeResult base = server.serve_on(snap, q, ServePath::kBaseOnly);
    if (hit_out.rewritten != expect_rewrite) {
      return expect_rewrite ? "FAIL: expected a rewrite, got fallback (" +
                                  hit_out.refusal + ")"
                            : "FAIL: wrongly rewritten onto " + hit_out.view;
    }
    if (!same_bag(hit_out.table, base.table)) {
      return "FAIL: rewritten answer differs from the base answer";
    }
    return "ok";
  } catch (const Error& e) {
    return std::string("FAIL: ") + e.what();
  }
}

int selftest() {
  MvServer server = make_server(0.02);
  const std::vector<ServeCase> cases = {
      // The four registered queries: each has its own materialized result.
      // The view binds city, so the twin only reorders.
      {"q1-exact",
       "SELECT Product.name FROM Product, Division "
       "WHERE Product.Did = Division.Did AND city = 'LA'",
       true,
       "SELECT Product.name FROM Division, Product "
       "WHERE city = 'LA' AND Division.Did = Product.Did"},
      // The view bounds quantity at 100: the literal is pinned.
      {"q4-exact",
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 100 AND Order.Cid = Customer.Cid",
       true,
       "SELECT Customer.city, date FROM Customer, Order "
       "WHERE Customer.Cid = Order.Cid AND quantity > 100"},
      // Residual compensation: strictly narrower over stored columns.
      {"q4-residual",
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 100 AND date > DATE '1996-07-01' "
       "AND Order.Cid = Customer.Cid",
       true,
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 100 AND date > DATE '1996-09-15' "
       "AND Order.Cid = Customer.Cid"},
      // Near miss: quantity > 99 admits a row the view discarded, and so
      // does every looser bound.
      {"q4-near-miss",
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 99 AND Order.Cid = Customer.Cid",
       false,
       "SELECT Customer.city, date FROM Order, Customer "
       "WHERE quantity > 42 AND Order.Cid = Customer.Cid"},
      // No deployed view touches Division alone.
      {"uncovered", "SELECT name FROM Division WHERE city = 'LA'", false,
       "SELECT name FROM Division WHERE city = 'SF'"},
  };

  int failures = 0;
  const auto report = [&](const std::string& name, const std::string& verdict) {
    if (verdict != "ok") ++failures;
    std::cout << name << ": " << verdict << "\n";
  };
  for (const ServeCase& c : cases) {
    ServeResult first;
    bool hit = false;
    report(c.name, check_serve(server, c.sql, c.expect_rewrite, first, hit));
    ServeResult twin;
    std::string verdict =
        check_serve(server, c.twin, c.expect_rewrite, twin, hit);
    if (verdict == "ok" && !hit) verdict = "FAIL: not a template-cache hit";
    if (verdict == "ok" && twin.view != first.view) {
      verdict = "FAIL: the hit answered from " + twin.view + ", not " +
                first.view;
    }
    report(c.name + " twin", verdict);
  }

  // The boundary pair on fresh caches, in both orders: neither decision
  // may leak across quantity > 100 / quantity > 99.
  for (const auto& pair : {std::pair{&cases[1], &cases[3]},
                            std::pair{&cases[3], &cases[1]}}) {
    MvServer fresh = make_server(0.02);
    const std::string order =
        "boundary (" + pair.first->name + ", " + pair.second->name + ")";
    for (const ServeCase* c : {pair.first, pair.second}) {
      ServeResult r;
      bool hit = false;
      report(order + " " + c->name,
             check_serve(fresh, c->sql, c->expect_rewrite, r, hit));
    }
    const CacheStats stats = fresh.template_cache_stats();
    std::cout << order << ": " << stats.hits << " hits, " << stats.misses
              << " misses\n";
  }

  for (const auto& [name, stats] :
       {std::pair{"template cache", server.template_cache_stats()},
        std::pair{"shape cache", server.shape_cache_stats()}}) {
    std::cout << name << ": " << stats.hits << " hits, " << stats.misses
              << " misses, " << stats.entries << " entries\n";
  }
  std::cout << (failures == 0
                    ? "self-test passed"
                    : "self-test FAILED (" + std::to_string(failures) +
                          " problems)")
            << "\n";
  return failures;
}

// ---- demo ------------------------------------------------------------------

int demo(MvServer& server) {
  std::cout << "== workload queries\n";
  const PaperExample example = make_paper_example();
  for (const QuerySpec& q : example.queries) {
    std::cout << q.name() << ": " << q.to_sql() << "\n";
    print_route(server.serve(q));
  }

  std::cout << "\n== ad-hoc variants\n";
  const std::vector<std::string> adhoc = {
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-01' "
      "AND Order.Cid = Customer.Cid",
      "SELECT name FROM Division WHERE city = 'LA'",
  };
  for (const std::string& sql : adhoc) {
    std::cout << sql << "\n";
    print_route(server.serve(sql));
  }

  std::cout << "\n== ingest + refresh\n";
  Rng rng(7);
  UpdateStreamOptions updates;
  server.ingest("Order", updates, rng);
  std::cout << "after ingest(Order): epoch " << server.epoch() << "\n";
  const QuerySpec& q4 = example.queries.back();
  ServeResult stale = server.serve(q4);
  std::cout << q4.name() << " while stale:\n";
  print_route(stale);
  server.refresh();
  std::cout << "after refresh: epoch " << server.epoch() << "\n";
  ServeResult fresh = server.serve(q4);
  print_route(fresh);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sql;
  bool base_only = false;
  bool run_repl = false;
  double scale = 0.02;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--sql") {
      if (i + 1 >= args.size()) return usage("--sql needs a query");
      sql = args[++i];
    } else if (arg == "--base") {
      base_only = true;
    } else if (arg == "--scale") {
      if (i + 1 >= args.size()) return usage("--scale needs a number");
      try {
        scale = std::stod(args[++i]);
      } catch (const std::exception&) {
        return usage("bad --scale value");
      }
    } else if (arg == "--repl") {
      run_repl = true;
    } else if (arg == "--selftest") {
      return selftest() == 0 ? 0 : 1;
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  try {
    MvServer server = make_server(scale);
    if (!sql.empty()) {
      return serve_one(server, sql,
                       base_only ? ServePath::kBaseOnly : ServePath::kAuto);
    }
    if (run_repl) return repl(server);
    return demo(server);
  } catch (const std::exception& e) {
    std::cerr << "mvserve: " << e.what() << "\n";
    return 2;
  }
}
