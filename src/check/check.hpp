// mvcheck — static analysis of logical plans before any engine touches
// data. One abstract-interpretation pass per plan:
//
//   * bottom-up schema/type inference: every column reference, projection
//     column, aggregate input and comparison is resolved and type-checked
//     against the child schema, so plans that would die row-by-row with
//     BindError/ExecError are rejected (or warned about) up front;
//   * predicate analysis over the interval domain of src/check/implication:
//     statically false selects/joins (contradiction), no-op predicates
//     (tautology) and conjuncts already entailed by filters below
//     (redundancy) are reported;
//   * cardinality intervals [lo, hi] per node, grounded in Database table
//     sizes when available — the differential tests assert the runtime
//     ExecStats rows_out always lands inside them;
//   * optional self-maintainability certification
//     (src/check/maintainability).
//
// check_stage_hook wires the pass into Executor::run and
// incremental_refresh behind MVD_CHECK=off|warn|error, mirroring the
// mvlint MVD_LINT_LEVEL hook protocol.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/algebra/logical_plan.hpp"
#include "src/check/maintainability.hpp"
#include "src/common/json.hpp"
#include "src/lint/diagnostic.hpp"
#include "src/storage/database.hpp"
#include "src/storage/delta_table.hpp"

namespace mvd {

/// Closed cardinality interval; hi may be +infinity (unbounded).
struct CardInterval {
  double lo = 0;
  double hi = 0;
  bool contains(double n) const { return n >= lo && n <= hi; }
};

/// Per-node result of the pass, in postorder (children before parents,
/// each DAG node once).
struct NodeCheck {
  const LogicalOp* node = nullptr;
  std::string label;
  CardInterval rows;
};

struct CheckOptions {
  /// Grounds scan schemas and cardinalities; may be null.
  const Database* database = nullptr;
  /// Pending frontier deltas: enables predict_refresh_path.
  const DeltaSet* deltas = nullptr;
  /// Stored view name for the global-MIN/MAX placeholder check.
  std::string view_name;
  /// Certify self-maintainability of the plan as a refresh plan.
  bool maintainability = true;
};

struct CheckReport {
  /// The analyzed plan. The report owns it so the raw node pointers in
  /// `nodes` stay valid for the report's lifetime.
  PlanPtr root;
  /// Diagnostics in mvlint's format (rule ids under "check/...").
  LintReport findings;
  /// Postorder node table with cardinality intervals.
  std::vector<NodeCheck> nodes;
  std::optional<MaintCertificate> maintainability;
  std::optional<RefreshPrediction> refresh;

  bool ok() const { return !findings.has_errors(); }

  /// Hull of the intervals of every node carrying `label` (labels are not
  /// unique across a DAG); nullopt when no node matches.
  std::optional<CardInterval> card_of(const std::string& label) const;

  std::string render_text() const;
  Json to_json() const;
};

/// Run the full pass over `plan`. Never throws on malformed plans — every
/// defect becomes a finding (that is the point of the tool).
CheckReport check_plan(const PlanPtr& plan, const CheckOptions& options = {});

/// Hook protocol, mirroring lint_stage_hook:
///   kOff    — hooks return immediately (one getenv of cost);
///   kWarn   — findings are printed to stderr, execution proceeds;
///   kError  — warnings print, error findings abort the stage with the
///             exception class the runtime would eventually throw
///             (BindError for resolution failures, ExecError otherwise).
enum class CheckHookLevel { kOff = 0, kWarn = 1, kError = 2 };

/// Programmatic override > MVD_CHECK environment variable > kOff.
CheckHookLevel check_hook_level();
void set_check_hook_level(std::optional<CheckHookLevel> level);

/// Pre-execution checkpoint invoked by Executor::run ("exec") and
/// incremental_refresh ("refresh").
void check_stage_hook(const char* stage, const PlanPtr& plan,
                      const Database* database);

}  // namespace mvd
