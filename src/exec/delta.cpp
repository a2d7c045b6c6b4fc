#include "src/exec/delta.hpp"

#include <unordered_map>
#include <utility>

#include "src/algebra/eval.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

namespace {

/// Signed sink over an output delta: +1 rows land in the insert bag,
/// -1 rows in the delete bag, after the residual predicate (if any).
struct DeltaSink {
  DeltaTable* out;
  const CompiledExpr* residual;  // over the concatenated join schema

  void emit(int sign, const Tuple& left, const Tuple& right) {
    Tuple joined = left;
    joined.insert(joined.end(), right.begin(), right.end());
    if (residual != nullptr && !residual->matches(joined)) return;
    if (sign > 0) {
      out->add_insert(std::move(joined));
    } else {
      out->add_delete(std::move(joined));
    }
  }
};

/// One hash-join term: build on the (small) signed delta, probe with the
/// full side. `delta_on_left` says which side of the output the delta's
/// tuples occupy; `term_sign` multiplies the delta's own signs.
void join_delta_with_full(const DeltaTable& delta, const Table& full,
                          const std::vector<std::size_t>& delta_idx,
                          const std::vector<std::size_t>& full_idx,
                          bool delta_on_left, int term_sign, DeltaSink& sink) {
  // Build: (hash, sign, row index into the signed bag pair).
  std::unordered_multimap<std::size_t, std::pair<int, const Tuple*>> table;
  table.reserve(delta.row_count());
  for (const Tuple& t : delta.inserts().rows()) {
    table.emplace(tuple_hash_key(t, delta_idx), std::make_pair(1, &t));
  }
  for (const Tuple& t : delta.deletes().rows()) {
    table.emplace(tuple_hash_key(t, delta_idx), std::make_pair(-1, &t));
  }
  for (const Tuple& p : full.rows()) {
    auto [lo, hi] = table.equal_range(tuple_hash_key(p, full_idx));
    for (auto it = lo; it != hi; ++it) {
      const Tuple& d = *it->second.second;
      if (!tuple_keys_equal(d, delta_idx, p, full_idx)) continue;
      const int sign = term_sign * it->second.first;
      if (delta_on_left) {
        sink.emit(sign, d, p);
      } else {
        sink.emit(sign, p, d);
      }
    }
  }
}

/// The ΔL ⋈ ΔR correction term: signed product with `term_sign` (the
/// algebra subtracts it, so callers pass -1).
void join_delta_with_delta(const DeltaTable& l, const DeltaTable& r,
                           const std::vector<std::size_t>& l_idx,
                           const std::vector<std::size_t>& r_idx,
                           int term_sign, DeltaSink& sink) {
  std::unordered_multimap<std::size_t, std::pair<int, const Tuple*>> table;
  table.reserve(l.row_count());
  for (const Tuple& t : l.inserts().rows()) {
    table.emplace(tuple_hash_key(t, l_idx), std::make_pair(1, &t));
  }
  for (const Tuple& t : l.deletes().rows()) {
    table.emplace(tuple_hash_key(t, l_idx), std::make_pair(-1, &t));
  }
  auto probe = [&](const Tuple& p, int p_sign) {
    auto [lo, hi] = table.equal_range(tuple_hash_key(p, r_idx));
    for (auto it = lo; it != hi; ++it) {
      const Tuple& d = *it->second.second;
      if (!tuple_keys_equal(d, l_idx, p, r_idx)) continue;
      sink.emit(term_sign * it->second.first * p_sign, d, p);
    }
  };
  for (const Tuple& t : r.inserts().rows()) probe(t, 1);
  for (const Tuple& t : r.deletes().rows()) probe(t, -1);
}

}  // namespace

DeltaPropagator::DeltaPropagator(const Database& db, const DeltaSet& deltas,
                                 ExecMode mode, std::size_t threads)
    : db_(&db), deltas_(&deltas), exec_(db, mode, threads) {}

std::optional<DeltaTable> DeltaPropagator::propagate(const PlanPtr& plan,
                                                     ExecStats* stats) {
  MVD_ASSERT(plan != nullptr);
  return run(plan, stats);
}

bool DeltaPropagator::touches(const PlanPtr& plan) const {
  if (plan->kind() == OpKind::kScan) {
    return deltas_->contains(static_cast<const ScanOp&>(*plan).relation());
  }
  for (const PlanPtr& child : plan->children()) {
    if (touches(child)) return true;
  }
  return false;
}

const Table& DeltaPropagator::full(const PlanPtr& plan, ExecStats* stats) {
  if (const auto it = full_memo_.find(plan.get()); it != full_memo_.end()) {
    return *it->second;
  }
  std::shared_ptr<const Table> side;
  if (plan->kind() == OpKind::kScan) {
    // Read the stored rows in place; the probe indexes them by the plan's
    // schema. Charged as the engine's scan: its blocks and rows, one batch
    // on the row engine or one per morsel on vec, and its rows_out.
    const Table& stored =
        db_->table(static_cast<const ScanOp&>(*plan).relation());
    Table::check_rebind(plan->output_schema(), stored.schema());
    if (stats != nullptr) {
      const std::size_t rows = stored.row_count();
      stats->blocks_read += stored.blocks();
      stats->rows_scanned += static_cast<double>(rows);
      stats->batches += exec_.mode() == ExecMode::kVectorized
                            ? static_cast<double>(morsel_count(rows))
                            : 1;
      stats->rows_out[plan->label()] = static_cast<double>(rows);
    }
    side = std::shared_ptr<const Table>(std::shared_ptr<const Table>{},
                                        &stored);
  } else {
    side = std::make_shared<const Table>(exec_.run(plan, stats));
  }
  if (counters_enabled()) {
    MetricsRegistry::global()
        .counter(plan->kind() == OpKind::kScan
                     ? "maintenance/refresh/full_sides_in_place"
                     : "maintenance/refresh/full_sides_executed")
        .increment();
  }
  return *full_memo_.emplace(plan.get(), std::move(side)).first->second;
}

std::optional<DeltaTable> DeltaPropagator::run(const PlanPtr& plan,
                                               ExecStats* stats) {
  if (const auto it = delta_memo_.find(plan.get()); it != delta_memo_.end()) {
    return it->second;
  }
  std::optional<DeltaTable> result;
  switch (plan->kind()) {
    case OpKind::kScan:
      result = delta_scan(static_cast<const ScanOp&>(*plan), stats);
      break;
    case OpKind::kSelect: {
      const auto in = run(plan->children()[0], stats);
      if (!in.has_value()) break;
      result = delta_select(static_cast<const SelectOp&>(*plan), *in, stats);
      break;
    }
    case OpKind::kProject: {
      const auto in = run(plan->children()[0], stats);
      if (!in.has_value()) break;
      result = delta_project(static_cast<const ProjectOp&>(*plan), *in);
      break;
    }
    case OpKind::kJoin: {
      const auto l = run(plan->children()[0], stats);
      const auto r = run(plan->children()[1], stats);
      if (!l.has_value() || !r.has_value()) break;
      result = delta_join(static_cast<const JoinOp&>(*plan), l, r, stats);
      break;
    }
    case OpKind::kAggregate:
      // Not covered by the delta algebra here; the maintenance driver
      // applies grouped deltas to stored aggregate views itself (or
      // recomputes). Interior aggregates force the recompute fallback.
      break;
  }
  if (result.has_value()) delta_memo_.emplace(plan.get(), *result);
  return result;
}

DeltaTable DeltaPropagator::delta_scan(const ScanOp& op,
                                       ExecStats* stats) const {
  const auto it = deltas_->find(op.relation());
  if (it == deltas_->end()) return DeltaTable(op.output_schema());
  if (it->second.schema().size() != op.output_schema().size()) {
    throw ExecError("delta of '" + op.relation() +
                    "' does not match the scan schema");
  }
  DeltaTable delta = it->second.schema() == op.output_schema()
                         ? it->second
                         : DeltaTable::rebind(op.output_schema(), it->second);
  if (stats != nullptr) {
    stats->blocks_read += delta.blocks();
    stats->rows_scanned += static_cast<double>(delta.row_count());
    stats->batches += 1;
  }
  return delta;
}

DeltaTable DeltaPropagator::delta_select(const SelectOp& op,
                                         const DeltaTable& in,
                                         ExecStats* stats) const {
  if (stats != nullptr) {
    stats->blocks_read += in.blocks();
    stats->rows_scanned += static_cast<double>(in.row_count());
    stats->batches += 1;
  }
  const CompiledExpr pred(op.predicate(), in.schema());
  DeltaTable out(in.schema(), in.blocking_factor());
  for (const Tuple& t : in.inserts().rows()) {
    if (pred.matches(t)) out.add_insert(t);
  }
  for (const Tuple& t : in.deletes().rows()) {
    if (pred.matches(t)) out.add_delete(t);
  }
  return out;
}

DeltaTable DeltaPropagator::delta_project(const ProjectOp& op,
                                          const DeltaTable& in) const {
  std::vector<std::size_t> indices;
  indices.reserve(op.columns().size());
  for (const std::string& c : op.columns()) {
    indices.push_back(in.schema().index_of(c));
  }
  DeltaTable out(op.output_schema(), in.blocking_factor());
  auto project = [&](const Tuple& t) {
    Tuple projected;
    projected.reserve(indices.size());
    for (std::size_t i : indices) projected.push_back(t[i]);
    return projected;
  };
  for (const Tuple& t : in.inserts().rows()) out.add_insert(project(t));
  for (const Tuple& t : in.deletes().rows()) out.add_delete(project(t));
  return out;
}

std::optional<DeltaTable> DeltaPropagator::delta_join(
    const JoinOp& op, const std::optional<DeltaTable>& l,
    const std::optional<DeltaTable>& r, ExecStats* stats) {
  const PlanPtr& lp = op.left();
  const PlanPtr& rp = op.right();
  const Schema& ls = lp->output_schema();
  const Schema& rs = rp->output_schema();
  DeltaTable out(op.output_schema(), l->blocking_factor());
  if (l->empty() && r->empty()) return out;

  const JoinSplit split = split_join_predicate(op, ls, rs);
  if (split.equi.empty()) return std::nullopt;
  std::vector<std::size_t> l_idx, r_idx;
  for (const auto& [li, ri] : split.equi) {
    l_idx.push_back(li);
    r_idx.push_back(ri);
  }
  std::unique_ptr<CompiledExpr> residual;
  if (!split.residual.empty()) {
    std::vector<ExprPtr> preds = split.residual;
    residual = std::make_unique<CompiledExpr>(conj(std::move(preds)),
                                              Schema::concat(ls, rs));
  }
  DeltaSink sink{&out, residual.get()};

  // Δ(L ⋈ R) = ΔL ⋈ R' + L' ⋈ ΔR − ΔL ⋈ ΔR, primed = post-update.
  if (!l->empty()) {
    const Table& rfull = full(rp, stats);
    if (stats != nullptr) {
      stats->blocks_read += l->blocks() + rfull.blocks();
      stats->rows_scanned +=
          static_cast<double>(l->row_count() + rfull.row_count());
      stats->batches += 2;
    }
    join_delta_with_full(*l, rfull, l_idx, r_idx, /*delta_on_left=*/true,
                         /*term_sign=*/1, sink);
  }
  if (!r->empty()) {
    const Table& lfull = full(lp, stats);
    if (stats != nullptr) {
      stats->blocks_read += r->blocks() + lfull.blocks();
      stats->rows_scanned +=
          static_cast<double>(r->row_count() + lfull.row_count());
      stats->batches += 2;
    }
    join_delta_with_full(*r, lfull, r_idx, l_idx, /*delta_on_left=*/false,
                         /*term_sign=*/1, sink);
  }
  if (!l->empty() && !r->empty()) {
    if (stats != nullptr) {
      stats->blocks_read += l->blocks() + r->blocks();
      stats->batches += 2;
    }
    join_delta_with_delta(*l, *r, l_idx, r_idx, /*term_sign=*/-1, sink);
  }
  return out;
}

}  // namespace mvd
