// mvcheck — static plan analysis: schema/type checking, predicate
// implication and self-maintainability certification, all before any
// engine touches data.
//
//   mvcheck                     check the paper workload's optimized plans
//   mvcheck --paper             same (explicit)
//   mvcheck --json              emit the reports as JSON
//   mvcheck --level LVL         only show findings at LVL or above
//                               (error|warn|info; default info)
//   mvcheck --selftest          corrupted-plan mutation coverage: every
//                               rule must fire on exactly the plan defect
//                               built to trigger it, and nothing else
//
// Exit status: 0 clean (no error-severity findings), 1 when errors (or a
// self-test failure) are found, 2 on usage or load problems.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/check/check.hpp"
#include "src/common/error.hpp"
#include "src/cost/cost_model.hpp"
#include "src/optimizer/optimizer.hpp"
#include "src/storage/database.hpp"
#include "src/workload/paper_example.hpp"

namespace {

using namespace mvd;

int usage(const std::string& problem) {
  std::cerr << "mvcheck: " << problem << "\n"
            << "usage: mvcheck [--paper] [--json]\n"
            << "               [--level error|warn|info] [--selftest]\n";
  return 2;
}

// ---- self-test -------------------------------------------------------------

/// One deliberately corrupted plan and the single rule it must trip.
struct PlanMutation {
  std::string name;
  std::string expected_rule;
  PlanPtr plan;
  std::shared_ptr<Database> database;  // optional grounding
};

Schema test_schema() {
  return Schema({Attribute{"id", ValueType::kInt64, "T"},
                 Attribute{"name", ValueType::kString, "T"},
                 Attribute{"qty", ValueType::kInt64, "T"}});
}

PlanPtr test_scan() { return std::make_shared<ScanOp>("T", test_schema()); }

std::vector<PlanMutation> builtin_plan_mutations() {
  std::vector<PlanMutation> out;
  const PlanPtr scan = test_scan();

  // Every constructor below is the *raw* operator constructor: the make_*
  // factories bind eagerly and would reject these plans up front, which
  // is exactly the hole mvcheck closes for hand-assembled plans.
  out.push_back({"predicate-unknown-column", "check/column-resolve",
                 std::make_shared<SelectOp>(scan,
                                            gt(col("missing"), lit_i64(5))),
                 nullptr});
  {
    // A projection referencing a column the projection below dropped.
    PlanPtr keep_id = make_project(scan, {"id"});
    Schema recorded({Attribute{"qty", ValueType::kInt64, "T"}});
    out.push_back({"projection-of-dropped-column", "check/projection-resolve",
                   std::make_shared<ProjectOp>(std::move(keep_id),
                                               std::move(recorded),
                                               std::vector<std::string>{"qty"}),
                   nullptr});
  }
  out.push_back({"string-vs-int-comparison", "check/type-mismatch",
                 std::make_shared<SelectOp>(scan, gt(col("name"), lit_i64(5))),
                 nullptr});
  out.push_back({"non-bool-predicate", "check/predicate-type",
                 std::make_shared<SelectOp>(scan, col("qty")), nullptr});
  out.push_back({"contradictory-range", "check/contradiction",
                 std::make_shared<SelectOp>(
                     scan, conj({gt(col("id"), lit_i64(5)),
                                 lt(col("id"), lit_i64(3))})),
                 nullptr});
  out.push_back({"always-true-predicate", "check/tautology",
                 std::make_shared<SelectOp>(scan, lit(Value::boolean(true))),
                 nullptr});
  {
    PlanPtr inner = make_select(scan, gt(col("id"), lit_i64(5)));
    out.push_back({"conjunct-repeated-above", "check/redundant-conjunct",
                   std::make_shared<SelectOp>(std::move(inner),
                                              gt(col("id"), lit_i64(5))),
                   nullptr});
  }
  {
    Schema agg_schema({Attribute{"name", ValueType::kString, "T"},
                       Attribute{"s", ValueType::kDouble, ""}});
    out.push_back(
        {"sum-over-string", "check/agg-input",
         std::make_shared<AggregateOp>(
             scan, std::move(agg_schema), std::vector<std::string>{"T.name"},
             std::vector<AggSpec>{{AggFn::kSum, "T.name", "s"}}),
         nullptr});
  }
  {
    Schema agg_schema({Attribute{"missing", ValueType::kInt64, ""},
                       Attribute{"n", ValueType::kInt64, ""}});
    out.push_back(
        {"group-by-unknown-column", "check/agg-resolve",
         std::make_shared<AggregateOp>(
             scan, std::move(agg_schema), std::vector<std::string>{"missing"},
             std::vector<AggSpec>{{AggFn::kCount, "", "n"}}),
         nullptr});
  }
  {
    // The stored table's qty is int64; the plan believes it is a string.
    auto db = std::make_shared<Database>();
    db->add_table("T", Table(Schema({Attribute{"id", ValueType::kInt64, ""},
                                     Attribute{"name", ValueType::kString, ""},
                                     Attribute{"qty", ValueType::kInt64, ""}}),
                             4));
    Schema drifted({Attribute{"id", ValueType::kInt64, "T"},
                    Attribute{"name", ValueType::kString, "T"},
                    Attribute{"qty", ValueType::kString, "T"}});
    out.push_back({"scan-schema-drift", "check/scan-schema",
                   std::make_shared<ScanOp>("T", std::move(drifted)),
                   std::move(db)});
  }
  {
    Schema two({Attribute{"id", ValueType::kInt64, "T"},
                Attribute{"qty", ValueType::kInt64, "T"}});
    out.push_back({"projection-arity-drift", "check/schema-consistent",
                   std::make_shared<ProjectOp>(scan, std::move(two),
                                               std::vector<std::string>{"id"}),
                   nullptr});
  }
  return out;
}

const char* kAllRules[] = {
    "check/column-resolve",   "check/projection-resolve",
    "check/type-mismatch",    "check/predicate-type",
    "check/contradiction",    "check/tautology",
    "check/redundant-conjunct", "check/agg-input",
    "check/agg-resolve",      "check/scan-schema",
    "check/schema-consistent",
};

int selftest() {
  std::set<std::string> covered;
  int failures = 0;
  for (const PlanMutation& mutation : builtin_plan_mutations()) {
    covered.insert(mutation.expected_rule);
    std::string verdict;
    try {
      CheckOptions opts;
      opts.database = mutation.database.get();
      const CheckReport report = check_plan(mutation.plan, opts);
      const std::set<std::string> fired = report.findings.fired_rules();
      if (fired == std::set<std::string>{mutation.expected_rule}) {
        verdict = "ok";
      } else {
        verdict = "FAIL: fired {";
        for (const std::string& rule : fired) verdict += " " + rule;
        verdict += " }, expected { " + mutation.expected_rule + " }";
      }
    } catch (const Error& e) {
      verdict = std::string("FAIL: ") + e.what();
    }
    if (verdict != "ok") ++failures;
    std::cout << mutation.name << " -> " << mutation.expected_rule << ": "
              << verdict << "\n";
  }
  for (const char* rule : kAllRules) {
    if (!covered.count(rule)) {
      ++failures;
      std::cout << "NO MUTATION covers rule " << rule << "\n";
    }
  }
  std::cout << (failures == 0 ? "self-test passed"
                              : "self-test FAILED (" +
                                    std::to_string(failures) + " problems)")
            << "\n";
  return failures;
}

// ---- paper workload --------------------------------------------------------

struct QueryCheck {
  std::string name;
  CheckReport report;
};

std::vector<QueryCheck> check_paper_workload() {
  const PaperExample example = make_paper_example();
  const Database db = populate_paper_database();
  const CostModel cost_model(example.catalog, paper_cost_config());
  const Optimizer optimizer(cost_model);

  std::vector<QueryCheck> out;
  for (const QuerySpec& q : example.queries) {
    CheckOptions opts;
    opts.database = &db;
    QueryCheck qc;
    qc.name = q.name();
    qc.report = check_plan(optimizer.optimize(q), opts);
    out.push_back(std::move(qc));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  Severity level = Severity::kInfo;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--paper") {
      // Default mode; accepted for symmetry with mvlint.
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--level") {
      if (i + 1 >= args.size()) return usage("--level needs a severity");
      try {
        level = severity_from_string(args[++i]);
      } catch (const Error& e) {
        return usage(e.what());
      }
    } else if (arg == "--selftest") {
      return selftest() == 0 ? 0 : 1;
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  try {
    const std::vector<QueryCheck> checks = check_paper_workload();
    bool errors = false;
    if (as_json) {
      Json doc = Json::object();
      Json arr = Json::array();
      for (const QueryCheck& qc : checks) {
        Json entry = Json::object();
        entry.set("query", Json::string(qc.name));
        entry.set("check", qc.report.to_json());
        arr.push_back(std::move(entry));
        errors = errors || !qc.report.ok();
      }
      doc.set("queries", std::move(arr));
      doc.set("ok", Json::boolean(!errors));
      std::cout << doc.dump(2) << "\n";
    } else {
      for (const QueryCheck& qc : checks) {
        CheckReport shown = qc.report;
        shown.findings = qc.report.findings.filtered(level);
        std::cout << "== " << qc.name << "\n" << shown.render_text() << "\n";
        errors = errors || !qc.report.ok();
      }
    }
    return errors ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "mvcheck: " << e.what() << "\n";
    return 2;
  }
}
