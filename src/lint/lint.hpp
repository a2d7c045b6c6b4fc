// mvlint entry points and the debug-build hooks.
//
// Convenience wrappers assemble the right LintContext for the common
// cases; lint_stage_hook() is the library-internal checkpoint invoked
// after MVPP construction (`build`), annotation (`annotate`) and view
// selection (`selection`). Hooks are off unless a level is configured:
//
//   MVD_LINT_LEVEL=error|warn|info   (environment, checked per call)
//   set_lint_hook_level(...)         (programmatic, wins over it)
//
// At level `error` a hook runs the registry and throws AssertionError
// when any error-severity diagnostic fires; `warn` and `info`
// additionally print lower-severity findings to stderr. The default
// (off) costs one getenv per hook and nothing else.
#pragma once

#include <optional>

#include "src/lint/registry.hpp"

namespace mvd {

/// Structure-phase rules only — the invariant set MvppGraph::validate()
/// enforces. Runs without closures/cost model/selections.
LintReport lint_structure(const MvppGraph& graph);

/// Structure + annotation + schema rules over one graph, with whatever
/// optional context is supplied.
LintReport lint_graph(const MvppGraph& graph,
                      const GraphClosures* closures = nullptr,
                      const CostModel* cost_model = nullptr);

/// Full pass including the selection rules for one result. Passing the
/// deploy-time `exec_stats` together with the warehouse `database`
/// additionally checks the recorded per-view row counts against the
/// stored views (selection/exec-rows-consistent).
LintReport lint_selection(const MvppEvaluator& evaluator,
                          const SelectionResult& selection,
                          std::optional<double> budget_blocks = std::nullopt,
                          const CostModel* cost_model = nullptr,
                          const ExecStats* exec_stats = nullptr,
                          const Database* database = nullptr);

// ---- Debug-build hooks ------------------------------------------------

enum class LintHookLevel { kOff, kError, kWarn, kInfo };

/// Effective hook level: programmatic override, else MVD_LINT_LEVEL,
/// else the compiled default, else off. Unknown env text means off.
LintHookLevel lint_hook_level();

/// Override the hook level for this process (tests); nullopt restores
/// env/compile-time resolution.
void set_lint_hook_level(std::optional<LintHookLevel> level);

/// Run the built-in registry over `ctx` when hooks are enabled. Throws
/// AssertionError naming `stage` when any error-severity diagnostic
/// fires; prints warn/info findings to stderr per the level. No-op when
/// hooks are off.
void lint_stage_hook(const char* stage, const LintContext& ctx);

}  // namespace mvd
