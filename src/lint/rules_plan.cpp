// Plan-level rule: every annotated node's equivalent plan tree must pass
// mvcheck static analysis (src/check/check) cleanly. The schema/* rules
// inspect the *graph fields* (predicate, columns, aggregates); this rule
// inspects the *plan trees* annotate() attached, catching drift between
// the two representations — e.g. a rewritten n.expr referencing a column
// its own projection child dropped, which no graph-field rule can see.
#include "src/check/check.hpp"
#include "src/common/strings.hpp"
#include "src/lint/registry.hpp"

namespace mvd {

namespace {

void check_plans_clean(const LintContext& ctx, RuleEmitter& out) {
  const MvppGraph& g = *ctx.graph;
  if (!g.annotated()) return;
  for (const MvppNode& n : g.nodes()) {
    if (n.expr == nullptr) continue;
    CheckOptions opts;
    opts.database = ctx.database;
    // Schema/type/predicate analysis only: maintainability certification
    // is advisory, not a lintable defect.
    opts.maintainability = false;
    const CheckReport report = check_plan(n.expr, opts);
    for (const Diagnostic& d : report.findings.diagnostics()) {
      if (d.severity != Severity::kError) continue;
      out.emit(g, n.id, str_cat("mvcheck ", d.rule, ": ", d.message),
               d.hint.empty() ? "the node's equivalent plan must pass "
                                "mvcheck static analysis"
                              : d.hint);
    }
  }
}

}  // namespace

void register_plan_rules(LintRegistry& registry) {
  registry.add({"plan/check-clean", LintPhase::kSchema, Severity::kError,
                "every node's equivalent plan passes mvcheck static analysis",
                check_plans_clean});
}

}  // namespace mvd
