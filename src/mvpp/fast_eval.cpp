#include "src/mvpp/fast_eval.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/cost/cost_model.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

FastMaterializedSet to_fast_set(const MaterializedSet& m,
                                std::size_t universe) {
  FastMaterializedSet out(universe);
  for (NodeId v : m) out.set(v);
  return out;
}

MaterializedSet to_materialized_set(const FastMaterializedSet& m) {
  MaterializedSet out;
  m.for_each([&](NodeId v) { out.insert(v); });
  return out;
}

FastMvppEvaluator::FastMvppEvaluator(const MvppEvaluator& eval,
                                     const GraphClosures& closures)
    : closures_(&closures),
      policy_(eval.policy()),
      index_(eval.index_policy()) {
  const MvppGraph& g = eval.graph();
  MVD_ASSERT_MSG(g.annotated(), "graph must be annotate()d");
  MVD_ASSERT_MSG(closures.size() == g.size(),
                 "closures describe a different graph");
  node_count_ = g.size();

  kind_.resize(node_count_);
  op_cost_.resize(node_count_);
  blocks_.resize(node_count_);
  rows_.resize(node_count_);
  store_charge_.resize(node_count_);
  update_factor_.assign(node_count_, 0.0);
  pure_equality_.assign(node_count_, 0);
  child_begin_.assign(node_count_ + 1, 0);

  for (std::size_t i = 0; i < node_count_; ++i) {
    const MvppNode& n = g.node(static_cast<NodeId>(i));
    kind_[i] = n.kind;
    op_cost_[i] = n.op_cost;
    blocks_[i] = n.blocks;
    rows_[i] = n.rows;
    store_charge_[i] = eval.store_charge(static_cast<NodeId>(i));
    if (n.kind == MvppNodeKind::kSelect) {
      pure_equality_[i] = is_pure_equality(n.predicate) ? 1 : 0;
    }
    child_begin_[i + 1] =
        child_begin_[i] + static_cast<std::uint32_t>(n.children.size());
  }
  child_ids_.reserve(child_begin_[node_count_]);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const NodeId v = static_cast<NodeId>(i);
    for (NodeId c : g.node(v).children) {
      child_ids_.push_back(c);
      edge_virtual_.push_back(eval.read_charge(c, v, /*stored=*/false));
      edge_stored_.push_back(eval.read_charge(c, v, /*stored=*/true));
    }
  }

  // Update factors, folded over bases_under in ascending order — the same
  // order (and therefore the same floating-point result) as
  // MvppEvaluator::update_factor.
  for (NodeId v : closures.operation_ids()) {
    double factor = 0;
    for (NodeId b : closures.bases_under(v)) {
      const double fu = g.node(b).frequency;
      if (policy_.mode == MaintenancePolicy::Mode::kBatchRecompute) {
        factor = std::max(factor, fu);
      } else {
        factor += fu;
      }
    }
    update_factor_[static_cast<std::size_t>(v)] = factor;
  }

  for (NodeId q : closures.query_ids()) {
    const MvppNode& n = g.node(q);
    const NodeId result = n.children[0];
    query_terms_.push_back(
        QueryTerm{q, result, n.frequency,
                  eval.read_charge(result, q, /*stored=*/false),
                  eval.read_charge(result, q, /*stored=*/true)});
  }

  memo_.assign(node_count_, 0.0);
  memo_epoch_.assign(node_count_, 0);
  // The no-reuse recompute starts from the base relations alone:
  // produce(v, ∅), which is Ca(v) bit for bit on one site.
  from_base_.assign(node_count_, 0.0);
  ++epoch_;
  const FastMaterializedSet none(node_count_);
  for (NodeId v : closures.operation_ids()) {
    from_base_[static_cast<std::size_t>(v)] = produce(v, none);
  }
  query_term_value_.assign(query_terms_.size(), 0.0);
  maint_term_value_.assign(node_count_, 0.0);
  current_ = FastMaterializedSet(node_count_);
  scratch_ = FastMaterializedSet(node_count_);
  tally_ = counters_enabled();
}

FastMvppEvaluator::~FastMvppEvaluator() {
  if (!tally_ || evaluations_ == 0) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("selection/fast_eval/evaluations")
      .add(static_cast<double>(evaluations_));
  reg.counter("selection/fast_eval/full_evals")
      .add(static_cast<double>(full_evals_));
  reg.counter("selection/fast_eval/delta_probes")
      .add(static_cast<double>(delta_probes_));
  reg.counter("selection/fast_eval/memo_hits")
      .add(static_cast<double>(memo_hits_));
  reg.counter("selection/fast_eval/memo_walks")
      .add(static_cast<double>(memo_walks_));
  reg.counter("selection/fast_eval/terms_reused")
      .add(static_cast<double>(terms_reused_));
  reg.counter("selection/fast_eval/terms_recomputed")
      .add(static_cast<double>(terms_recomputed_));
}

double FastMvppEvaluator::op_contribution(NodeId v,
                                          const FastMaterializedSet& m) const {
  const std::size_t i = static_cast<std::size_t>(v);
  if (!index_.enabled) return op_cost_[i];
  switch (kind_[i]) {
    case MvppNodeKind::kSelect: {
      const NodeId c = child_ids_[child_begin_[i]];
      if (m.test(c) && pure_equality_[i]) {
        return std::max(1.0, blocks_[i]);
      }
      return op_cost_[i];
    }
    case MvppNodeKind::kJoin: {
      double best = op_cost_[i];
      for (int side = 0; side < 2; ++side) {
        const NodeId inner =
            child_ids_[child_begin_[i] + static_cast<std::uint32_t>(side)];
        const NodeId outer =
            child_ids_[child_begin_[i] + static_cast<std::uint32_t>(1 - side)];
        if (!m.test(inner)) continue;
        const double probes = rows_[static_cast<std::size_t>(outer)] *
                              index_.probe_cost_blocks;
        best = std::min(best, blocks_[static_cast<std::size_t>(outer)] + probes);
      }
      return best;
    }
    default:
      return op_cost_[i];
  }
}

double FastMvppEvaluator::produce(NodeId v, const FastMaterializedSet& m) {
  const std::size_t i = static_cast<std::size_t>(v);
  if (memo_epoch_[i] == epoch_) {
    if (tally_) ++memo_hits_;
    return memo_[i];
  }
  if (tally_) ++memo_walks_;
  double cost = 0;
  if (kind_[i] != MvppNodeKind::kBase) {
    cost = op_contribution(v, m);
    for (std::uint32_t ci = child_begin_[i]; ci < child_begin_[i + 1]; ++ci) {
      const NodeId c = child_ids_[ci];
      const bool member = m.test(c);
      const bool base =
          kind_[static_cast<std::size_t>(c)] == MvppNodeKind::kBase;
      if (!member && !base) cost += produce(c, m);
      cost += member ? edge_stored_[ci] : edge_virtual_[ci];
    }
  }
  memo_epoch_[i] = epoch_;
  memo_[i] = cost;
  return cost;
}

double FastMvppEvaluator::answer(const QueryTerm& q,
                                 const FastMaterializedSet& m) {
  if (m.test(q.result)) {
    return blocks_[static_cast<std::size_t>(q.result)] + q.read_stored;
  }
  return produce(q.result, m) + q.read_virtual;
}

double FastMvppEvaluator::maintenance_term(NodeId v,
                                           const FastMaterializedSet& m) {
  const std::size_t i = static_cast<std::size_t>(v);
  const double recompute =
      policy_.reuse_materialized ? produce(v, m) : from_base_[i];
  return update_factor_[i] * (recompute + store_charge_[i]);
}

MvppCosts FastMvppEvaluator::evaluate(const FastMaterializedSet& m) {
  ++epoch_;
  ++evaluations_;
  if (tally_) ++full_evals_;
  MvppCosts costs;
  for (const QueryTerm& q : query_terms_) {
    costs.query_processing += q.frequency * answer(q, m);
  }
  m.for_each([&](NodeId v) { costs.maintenance += maintenance_term(v, m); });
  return costs;
}

void FastMvppEvaluator::load(const FastMaterializedSet& m) {
  MVD_ASSERT(m.universe() == node_count_);
  current_ = m;
  ++epoch_;
  ++evaluations_;
  if (tally_) ++full_evals_;
  double qp = 0;
  for (std::size_t qi = 0; qi < query_terms_.size(); ++qi) {
    const QueryTerm& q = query_terms_[qi];
    query_term_value_[qi] = q.frequency * answer(q, current_);
    qp += query_term_value_[qi];
  }
  double maint = 0;
  current_.for_each([&](NodeId v) {
    maint_term_value_[static_cast<std::size_t>(v)] =
        maintenance_term(v, current_);
    maint += maint_term_value_[static_cast<std::size_t>(v)];
  });
  total_ = qp + maint;
  loaded_ = true;
}

bool FastMvppEvaluator::term_affected(NodeId owner, const NodeId* toggles,
                                      std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    if (owner == toggles[i] || closures_->ancestors(toggles[i]).test(owner)) {
      return true;
    }
  }
  return false;
}

double FastMvppEvaluator::eval_toggled(const NodeId* toggles,
                                       std::size_t count, bool commit) {
  MVD_ASSERT_MSG(loaded_, "load() a set before probing");
  scratch_ = current_;
  for (std::size_t i = 0; i < count; ++i) scratch_.toggle(toggles[i]);
  ++epoch_;
  ++evaluations_;
  if (tally_) ++delta_probes_;

  // Unchanged terms reuse their cached value; affected terms — owners in
  // a toggled node's ancestor cone, plus the toggled members themselves —
  // fall back to a fresh walk under the toggled set. Re-summing every
  // term in the reference order keeps the result bit-identical to a full
  // evaluation.
  double qp = 0;
  for (std::size_t qi = 0; qi < query_terms_.size(); ++qi) {
    const QueryTerm& q = query_terms_[qi];
    double term = query_term_value_[qi];
    if (term_affected(q.query, toggles, count)) {
      term = q.frequency * answer(q, scratch_);
      if (tally_) ++terms_recomputed_;
    } else if (tally_) {
      ++terms_reused_;
    }
    if (commit) query_term_value_[qi] = term;
    qp += term;
  }
  double maint = 0;
  scratch_.for_each([&](NodeId v) {
    double term = maint_term_value_[static_cast<std::size_t>(v)];
    if (term_affected(v, toggles, count)) {
      term = maintenance_term(v, scratch_);
      if (tally_) ++terms_recomputed_;
    } else if (tally_) {
      ++terms_reused_;
    }
    if (commit) maint_term_value_[static_cast<std::size_t>(v)] = term;
    maint += term;
  });
  const double total = qp + maint;
  if (commit) {
    current_ = scratch_;
    total_ = total;
  }
  return total;
}

double FastMvppEvaluator::probe_toggle(NodeId v) {
  return eval_toggled(&v, 1, /*commit=*/false);
}

double FastMvppEvaluator::probe_swap(NodeId out, NodeId in) {
  MVD_ASSERT(out != in);
  const NodeId toggles[2] = {out, in};
  return eval_toggled(toggles, 2, /*commit=*/false);
}

void FastMvppEvaluator::commit_toggle(NodeId v) {
  eval_toggled(&v, 1, /*commit=*/true);
}

}  // namespace mvd
