// The serve tests' oracles. For the template cache: whatever path a serve
// took (cache hit or miss), its route, view and refusal list must be what
// best_view_match returns on the snapshot it ran on. For the shape cache:
// the spec MvServer::bind returns must be parse_adhoc's in every field but
// the name.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/optimizer/view_rewrite.hpp"
#include "src/serve/server.hpp"

namespace mvd {

/// Empty when `r` (served for `q` on `snap`) carries best_view_match's
/// decision; otherwise what differs.
inline std::string decision_mismatch(const MvServer& server,
                                     const ServeSnapshot& snap,
                                     const QuerySpec& q,
                                     const ServeResult& r) {
  std::vector<ViewRefusal> refusals;
  const auto best = best_view_match(q, snap.registry.matchable(),
                                    server.catalog(), &refusals);
  if (r.rewritten != best.has_value()) {
    return r.rewritten ? "rewritten onto " + r.view + ", matcher refuses"
                       : "fell back, matcher picks " + best->view;
  }
  if (best.has_value()) {
    return r.view == best->view ? "" : "view " + r.view + " vs " + best->view;
  }
  if (r.refusals.size() != refusals.size()) return "refusal count";
  for (std::size_t i = 0; i < refusals.size(); ++i) {
    if (r.refusals[i].view != refusals[i].view ||
        r.refusals[i].reason != refusals[i].reason) {
      return "refusal " + r.refusals[i].view + ": " + r.refusals[i].reason +
             " vs " + refusals[i].view + ": " + refusals[i].reason;
    }
  }
  return "";
}

/// `e` as text that also spells each literal's type and bits, so 5 and
/// 5.0, or 0.0 and -0.0, read differently.
inline std::string typed_text(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return e->to_string();
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*e).value();
      std::string out = to_string(v.type()) + ":" + v.to_string();
      if (v.type() == ValueType::kDouble) {
        out += "#" + std::to_string(
                         std::bit_cast<std::uint64_t>(v.as_double()));
      }
      return out;
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      return "(" + typed_text(c.lhs()) + " " + to_string(c.op()) + " " +
             typed_text(c.rhs()) + ")";
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::string out = e->kind() == ExprKind::kAnd ? "AND(" : "OR(";
      for (const ExprPtr& op : static_cast<const BoolExpr&>(*e).operands()) {
        out += typed_text(op) + ";";
      }
      return out + ")";
    }
    case ExprKind::kNot:
      return "NOT(" + typed_text(static_cast<const NotExpr&>(*e).operand()) +
             ")";
  }
  return "?";
}

inline std::string typed_texts(const std::vector<ExprPtr>& exprs) {
  std::string out;
  for (const ExprPtr& e : exprs) out += typed_text(e) + "\n";
  return out;
}

/// Empty when `a` and `b` are the same bound query in every field but
/// their names; otherwise the first field that differs.
inline std::string spec_mismatch(const QuerySpec& a, const QuerySpec& b) {
  if (a.fingerprint() != b.fingerprint()) {
    return "fingerprint " + a.fingerprint() + " vs " + b.fingerprint();
  }
  if (a.template_fingerprint() != b.template_fingerprint()) {
    return "template " + a.template_fingerprint() + " vs " +
           b.template_fingerprint();
  }
  if (typed_texts(a.canonical_conjuncts()) !=
      typed_texts(b.canonical_conjuncts())) {
    return "canonical conjuncts " + typed_texts(a.canonical_conjuncts()) +
           " vs " + typed_texts(b.canonical_conjuncts());
  }
  if (a.template_slots().size() != b.template_slots().size()) {
    return "slot count";
  }
  for (std::size_t i = 0; i < a.template_slots().size(); ++i) {
    if (!a.template_slots()[i].identical(b.template_slots()[i])) {
      return "slot " + std::to_string(i);
    }
  }
  if (typed_texts(a.selections()) != typed_texts(b.selections())) {
    return "selections " + typed_texts(a.selections()) + " vs " +
           typed_texts(b.selections());
  }
  if (a.joins() != b.joins()) return "joins";
  if (a.relations() != b.relations()) return "relations";
  if (a.projection() != b.projection()) return "projection";
  if (a.group_by() != b.group_by()) return "group by";
  if (a.aggregates() != b.aggregates()) return "aggregates";
  if (a.frequency() != b.frequency()) return "frequency";
  return "";
}

}  // namespace mvd
