#include "src/lint/lint.hpp"

#include <cstdlib>
#include <iostream>

#include "src/common/assert.hpp"
#include "src/common/strings.hpp"

namespace mvd {

LintReport lint_structure(const MvppGraph& graph) {
  LintContext ctx;
  ctx.graph = &graph;
  return LintRegistry::builtin().run(ctx, LintPhase::kStructure);
}

LintReport lint_graph(const MvppGraph& graph, const GraphClosures* closures,
                      const CostModel* cost_model) {
  LintContext ctx;
  ctx.graph = &graph;
  ctx.closures = closures;
  ctx.cost_model = cost_model;
  return LintRegistry::builtin().run(ctx, LintPhase::kSchema);
}

LintReport lint_selection(const MvppEvaluator& evaluator,
                          const SelectionResult& selection,
                          std::optional<double> budget_blocks,
                          const CostModel* cost_model,
                          const ExecStats* exec_stats,
                          const Database* database) {
  LintContext ctx;
  ctx.graph = &evaluator.graph();
  ctx.closures = &evaluator.closures();
  ctx.cost_model = cost_model;
  ctx.evaluator = &evaluator;
  ctx.exec_stats = exec_stats;
  ctx.database = database;
  ctx.selections.push_back({&selection, budget_blocks});
  return LintRegistry::builtin().run(ctx);
}

namespace {

std::optional<LintHookLevel>& hook_override() {
  static std::optional<LintHookLevel> value;
  return value;
}

LintHookLevel parse_level(const char* text) {
  if (text == nullptr || *text == '\0') return LintHookLevel::kOff;
  if (equals_icase(text, "error")) return LintHookLevel::kError;
  if (equals_icase(text, "warn") || equals_icase(text, "warning")) {
    return LintHookLevel::kWarn;
  }
  if (equals_icase(text, "info")) return LintHookLevel::kInfo;
  return LintHookLevel::kOff;  // including explicit "off"
}

}  // namespace

LintHookLevel lint_hook_level() {
  if (hook_override().has_value()) return *hook_override();
  // Re-read the environment on every call so tests can flip the level at
  // runtime; one getenv is the entire cost of disabled hooks.
  if (const char* env = std::getenv("MVD_LINT_LEVEL")) return parse_level(env);
  return LintHookLevel::kOff;
}

void set_lint_hook_level(std::optional<LintHookLevel> level) {
  hook_override() = level;
}

void lint_stage_hook(const char* stage, const LintContext& ctx) {
  const LintHookLevel level = lint_hook_level();
  if (level == LintHookLevel::kOff) return;
  const LintReport report = LintRegistry::builtin().run(ctx);
  if (report.clean()) return;
  if (level >= LintHookLevel::kWarn) {
    const Severity floor =
        level == LintHookLevel::kInfo ? Severity::kInfo : Severity::kWarn;
    const LintReport visible = report.filtered(floor);
    if (!visible.clean() && !visible.has_errors()) {
      std::cerr << "mvlint[" << stage << "]:\n" << visible.render_text();
    }
  }
  if (report.has_errors()) {
    throw AssertionError(str_cat("mvlint[", stage, "] found ",
                                 report.count(Severity::kError),
                                 " error(s):\n",
                                 report.filtered(Severity::kError).render_text()));
  }
}

}  // namespace mvd
