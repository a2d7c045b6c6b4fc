#include "src/check/maintainability.hpp"

#include "src/exec/exec_internal.hpp"

namespace mvd {

namespace {

/// Why the delta algebra cannot carry a delta through `plan`'s subtree
/// (mirror of DeltaPropagator::run's nullopt sources that do not depend
/// on the batch). nullopt = propagation is structurally possible.
std::optional<std::string> propagation_refusal(const PlanPtr& plan) {
  switch (plan->kind()) {
    case OpKind::kScan:
      return std::nullopt;
    case OpKind::kSelect:
    case OpKind::kProject:
      return propagation_refusal(plan->children()[0]);
    case OpKind::kJoin: {
      if (auto r = propagation_refusal(plan->children()[0])) return r;
      if (auto r = propagation_refusal(plan->children()[1])) return r;
      const auto& join = static_cast<const JoinOp&>(*plan);
      const JoinSplit split = split_join_predicate(
          join, join.left()->output_schema(), join.right()->output_schema());
      if (split.equi.empty()) {
        return "join " + plan->label() +
               " has no hashable equi conjunct (the delta algebra joins "
               "deltas by key)";
      }
      return std::nullopt;
    }
    case OpKind::kAggregate:
      return "interior aggregate " + plan->label() +
             " is outside the delta algebra";
  }
  return std::nullopt;
}

/// Mirror of DeltaPropagator::touches.
bool touched(const PlanPtr& plan, const DeltaSet& deltas) {
  if (plan->kind() == OpKind::kScan) {
    const auto it = deltas.find(static_cast<const ScanOp&>(*plan).relation());
    return it != deltas.end() && !it->second.empty();
  }
  for (const PlanPtr& child : plan->children()) {
    if (touched(child, deltas)) return true;
  }
  return false;
}

/// Does any touched scan leaf carry deletes after compaction? (The refresh
/// frontier holds compacted deltas, so an insert-only compacted frontier
/// feeds insert-only deltas into the whole propagation.)
bool leaf_deletes(const PlanPtr& plan, const DeltaSet& deltas) {
  if (plan->kind() == OpKind::kScan) {
    const auto it = deltas.find(static_cast<const ScanOp&>(*plan).relation());
    return it != deltas.end() && !it->second.empty() &&
           it->second.compacted().deletes().row_count() > 0;
  }
  for (const PlanPtr& child : plan->children()) {
    if (leaf_deletes(child, deltas)) return true;
  }
  return false;
}

/// Whether propagation reaches past `plan`, and whether the delta it
/// would produce is provably empty.
enum class Prop { kYes, kNo, kMaybe };
struct Flow {
  Prop prop = Prop::kYes;
  bool empty = false;  // if propagation succeeds, the delta is empty
};

Flow flow(const PlanPtr& plan, const DeltaSet& deltas) {
  switch (plan->kind()) {
    case OpKind::kScan:
      return {Prop::kYes, !touched(plan, deltas)};
    case OpKind::kSelect:
    case OpKind::kProject:
      return flow(plan->children()[0], deltas);
    case OpKind::kJoin: {
      const Flow l = flow(plan->children()[0], deltas);
      const Flow r = flow(plan->children()[1], deltas);
      if (l.prop == Prop::kNo || r.prop == Prop::kNo) return {Prop::kNo, false};
      const Prop base = (l.prop == Prop::kMaybe || r.prop == Prop::kMaybe)
                            ? Prop::kMaybe
                            : Prop::kYes;
      // delta_join returns the empty delta *before* the equi-split check
      // when both side deltas are empty.
      if (l.empty && r.empty) return {base, true};
      const auto& join = static_cast<const JoinOp&>(*plan);
      const JoinSplit split = split_join_predicate(
          join, join.left()->output_schema(), join.right()->output_schema());
      if (split.equi.empty()) {
        // Propagates only if both deltas dynamically compact to empty —
        // in which case the output is empty too.
        return {Prop::kMaybe, true};
      }
      return {base, false};
    }
    case OpKind::kAggregate:
      return {Prop::kNo, false};
  }
  return {Prop::kNo, false};
}

}  // namespace

std::string to_string(MaintVerdict verdict) {
  switch (verdict) {
    case MaintVerdict::kSelfMaintainable:
      return "self-maintainable";
    case MaintVerdict::kInsertOnly:
      return "insert-only";
    case MaintVerdict::kExtremumHazard:
      return "extremum-hazard";
    case MaintVerdict::kNotMaintainable:
      return "not-maintainable";
  }
  return "?";
}

std::string to_string(PredictedPath path) {
  switch (path) {
    case PredictedPath::kSkip:
      return "skip";
    case PredictedPath::kIncremental:
      return "incremental";
    case PredictedPath::kRecompute:
      return "recompute";
    case PredictedPath::kDataDependent:
      return "data-dependent";
  }
  return "?";
}

AggStatics agg_statics(const AggregateOp& op) {
  AggStatics s;
  s.n_groups = op.group_by().size();
  const std::vector<AggSpec>& specs = op.aggregates();
  s.avg_sum.assign(specs.size(), SIZE_MAX);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    if (specs[j].fn == AggFn::kCount) {
      s.count_spec = j;
      break;
    }
  }
  for (std::size_t j = 0; j < specs.size(); ++j) {
    switch (specs[j].fn) {
      case AggFn::kCount:
      case AggFn::kSum:
      case AggFn::kSumInt:
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        s.has_minmax = true;
        break;
      case AggFn::kAvg:
        for (std::size_t k = 0; k < specs.size(); ++k) {
          if (specs[k].fn == AggFn::kSum &&
              specs[k].column == specs[j].column) {
            s.avg_sum[j] = k;
            break;
          }
        }
        if (!s.count_spec.has_value() || s.avg_sum[j] == SIZE_MAX) {
          s.avg_ok = false;
        }
        break;
    }
  }
  return s;
}

MaintCertificate certify_refresh_plan(const PlanPtr& plan) {
  MaintCertificate cert;
  if (plan->kind() != OpKind::kAggregate) {
    if (auto refusal = propagation_refusal(plan)) {
      cert.verdict = MaintVerdict::kNotMaintainable;
      cert.reason = *refusal;
    }
    return cert;
  }
  const auto& agg = static_cast<const AggregateOp&>(*plan);
  if (auto refusal = propagation_refusal(plan->children()[0])) {
    cert.verdict = MaintVerdict::kNotMaintainable;
    cert.reason = *refusal;
    return cert;
  }
  const AggStatics s = agg_statics(agg);
  if (!s.avg_ok) {
    cert.verdict = MaintVerdict::kNotMaintainable;
    cert.reason =
        "AVG without a COUNT and a same-column SUM cannot be reconstructed "
        "from deltas (the stored average is a rounded quotient)";
    return cert;
  }
  if (s.n_groups == 0 && s.has_minmax && !s.count_spec.has_value()) {
    cert.verdict = MaintVerdict::kNotMaintainable;
    cert.reason =
        "global MIN/MAX without a COUNT cannot distinguish the empty-input "
        "placeholder row from real extrema";
    return cert;
  }
  if (!s.count_spec.has_value()) {
    cert.verdict = MaintVerdict::kInsertOnly;
    cert.reason = "deletes need a COUNT to detect emptied groups";
    return cert;
  }
  if (s.has_minmax) {
    cert.verdict = MaintVerdict::kExtremumHazard;
    cert.reason =
        "a delete reaching the stored MIN/MAX extremum forces recompute";
    return cert;
  }
  return cert;
}

RefreshPrediction predict_refresh_path(const PlanPtr& plan,
                                       const DeltaSet& deltas,
                                       const Database* db,
                                       const std::string& view_name) {
  RefreshPrediction out;
  if (!touched(plan, deltas)) {
    out.path = PredictedPath::kSkip;
    out.reason = "no pending delta reaches the plan's scan leaves";
    return out;
  }
  if (plan->kind() != OpKind::kAggregate) {
    const Flow f = flow(plan, deltas);
    switch (f.prop) {
      case Prop::kYes:
        out.path = PredictedPath::kIncremental;
        out.reason = "the delta algebra covers the whole plan";
        return out;
      case Prop::kNo:
        out.path = PredictedPath::kRecompute;
        out.reason = "delta propagation cannot reach the root";
        return out;
      case Prop::kMaybe:
        out.path = PredictedPath::kDataDependent;
        out.reason =
            "a non-equi join propagates only when both side deltas are empty";
        return out;
    }
  }

  const auto& agg = static_cast<const AggregateOp&>(*plan);
  const Flow f = flow(plan->children()[0], deltas);
  if (f.prop == Prop::kNo) {
    out.path = PredictedPath::kRecompute;
    out.reason = "delta propagation stops below the aggregate";
    return out;
  }
  const AggStatics s = agg_statics(agg);
  std::string static_fail;
  if (!s.avg_ok) {
    static_fail = "AVG without a COUNT and a same-column SUM";
  } else if (s.n_groups == 0 && s.has_minmax && !s.count_spec.has_value()) {
    static_fail = "global MIN/MAX without a COUNT";
  }
  if (f.prop == Prop::kMaybe) {
    out.path = PredictedPath::kDataDependent;
    out.reason =
        "a non-equi join propagates only when both side deltas are empty";
    return out;
  }
  if (f.empty) {
    // Unreachable when the plan is touched, kept for completeness: an
    // empty child delta short-circuits to a trivial group-apply.
    out.path = PredictedPath::kIncremental;
    out.reason = "provably empty child delta group-applies trivially";
    return out;
  }
  if (!static_fail.empty()) {
    out.path = PredictedPath::kDataDependent;
    out.reason = "not self-maintainable (" + static_fail +
                 "): an empty child delta still group-applies, anything else "
                 "recomputes";
    return out;
  }
  if (!leaf_deletes(plan, deltas)) {
    // Insert-only frontier: Δσ/Δπ preserve signs and the Δ⋈ correction
    // term's deletes cancel under compaction, so the aggregate sees an
    // insert-only batch — no delete-driven fallback can fire.
    if (s.n_groups == 0 && s.has_minmax) {
      // maintain_aggregate_view still refuses when the stored global row
      // is the empty-input placeholder (old COUNT == 0).
      bool stored_ok = false;
      if (db != nullptr && !view_name.empty() && db->has_table(view_name)) {
        const Table& stored = db->table(view_name);
        if (stored.row_count() > 0 &&
            stored.row(0)[s.n_groups + *s.count_spec].as_int64() > 0) {
          stored_ok = true;
        }
      }
      if (!stored_ok) {
        out.path = PredictedPath::kDataDependent;
        out.reason =
            "global MIN/MAX over a possible empty-input placeholder row";
        return out;
      }
    }
    out.path = PredictedPath::kIncremental;
    out.reason = "insert-only batch maintains every aggregate class";
    return out;
  }
  if (!s.count_spec.has_value()) {
    out.path = PredictedPath::kDataDependent;
    out.reason =
        "a delete surviving to the aggregate forces recompute without a "
        "COUNT (whether one survives depends on the data)";
    return out;
  }
  if (s.has_minmax) {
    out.path = PredictedPath::kDataDependent;
    out.reason =
        "a delete reaching a stored MIN/MAX extremum forces recompute "
        "(whether one does depends on the data)";
    return out;
  }
  if (s.n_groups == 0) {
    // COUNT-covered global aggregate: a deleting batch can empty the
    // input, which group-apply handles via the placeholder row.
    out.path = PredictedPath::kIncremental;
    out.reason = "COUNT-covered global aggregate group-applies any "
                 "consistent batch";
    return out;
  }
  out.path = PredictedPath::kIncremental;
  out.reason = "COUNT-covered aggregate group-applies any consistent batch";
  return out;
}

}  // namespace mvd
