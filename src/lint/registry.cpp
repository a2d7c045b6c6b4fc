#include "src/lint/registry.hpp"

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

void RuleEmitter::emit(const MvppGraph& graph, NodeId node, std::string message,
                       std::string hint) {
  Diagnostic d;
  d.rule = *rule_;
  d.severity = severity_;
  d.node = node;
  if (node >= 0 && static_cast<std::size_t>(node) < graph.size()) {
    d.subject = graph.node(node).name;
    if (d.subject.empty()) d.subject = str_cat("#", node);
  }
  d.message = std::move(message);
  d.hint = std::move(hint);
  report_->add(std::move(d));
}

void RuleEmitter::emit_graph(std::string message, std::string hint) {
  Diagnostic d;
  d.rule = *rule_;
  d.severity = severity_;
  d.subject = "<graph>";
  d.message = std::move(message);
  d.hint = std::move(hint);
  report_->add(std::move(d));
}

void RuleEmitter::emit_selection(const SelectionResult& selection,
                                 std::string message, std::string hint) {
  Diagnostic d;
  d.rule = *rule_;
  d.severity = severity_;
  d.subject = selection.algorithm;
  d.message = std::move(message);
  d.hint = std::move(hint);
  report_->add(std::move(d));
}

void LintRegistry::add(LintRule rule) {
  MVD_ASSERT(rule.check != nullptr);
  for (const LintRule& existing : rules_) {
    if (existing.id == rule.id) {
      throw PlanError("duplicate lint rule id '" + rule.id + "'");
    }
  }
  rules_.push_back(std::move(rule));
}

LintReport LintRegistry::run(const LintContext& ctx, LintPhase max_phase) const {
  MVD_ASSERT_MSG(ctx.graph != nullptr, "LintContext.graph is required");
  LintReport report;
  static constexpr LintPhase kPhases[] = {
      LintPhase::kStructure, LintPhase::kAnnotation, LintPhase::kSchema,
      LintPhase::kSelection};
  for (LintPhase phase : kPhases) {
    for (const LintRule& rule : rules_) {
      if (rule.phase != phase) continue;
      RuleEmitter emitter(rule.id, rule.severity, report);
      rule.check(ctx, emitter);
    }
    // A structurally broken graph makes the downstream invariants
    // meaningless; report the root cause alone.
    if (phase == LintPhase::kStructure && report.has_errors()) break;
    if (phase == max_phase) break;
  }
  return report;
}

const LintRegistry& LintRegistry::builtin() {
  static const LintRegistry registry = [] {
    LintRegistry r;
    register_structure_rules(r);
    register_annotation_rules(r);
    register_schema_rules(r);
    register_plan_rules(r);
    register_selection_rules(r);
    register_maintenance_rules(r);
    register_obs_rules(r);
    register_distributed_rules(r);
    register_serve_rules(r);
    return r;
  }();
  return registry;
}

}  // namespace mvd
