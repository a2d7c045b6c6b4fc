#include "src/exec/delta.hpp"

#include <utility>

#include "src/algebra/eval.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

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
  const RowJoiner joiner(split, ls, rs);
  auto emit = [&](int sign, const Tuple& left, const Tuple& right) {
    if (auto row = joiner.join(left, right)) {
      if (sign > 0) {
        out.add_insert(std::move(*row));
      } else {
        out.add_delete(std::move(*row));
      }
    }
  };
  // Each term builds on a (small) signed delta, inserts before deletes,
  // with the sign as payload.
  auto build = [](const DeltaTable& d, const std::vector<std::size_t>& idx) {
    RowHashIndex index(idx, d.row_count());
    for (const Tuple& t : d.inserts().rows()) index.insert(t, 1);
    for (const Tuple& t : d.deletes().rows()) index.insert(t, -1);
    return index;
  };

  // Δ(L ⋈ R) = ΔL ⋈ R' + L' ⋈ ΔR − ΔL ⋈ ΔR, primed = post-update.
  if (!l->empty()) {
    const Table& rfull = full(rp, stats);
    if (stats != nullptr) {
      stats->blocks_read += l->blocks() + rfull.blocks();
      stats->rows_scanned +=
          static_cast<double>(l->row_count() + rfull.row_count());
      stats->batches += 2;
    }
    const RowHashIndex index = build(*l, l_idx);
    for (const Tuple& p : rfull.rows()) {
      index.probe(p, r_idx,
                  [&](const Tuple& d, int sign) { emit(sign, d, p); });
    }
  }
  if (!r->empty()) {
    const Table& lfull = full(lp, stats);
    if (stats != nullptr) {
      stats->blocks_read += r->blocks() + lfull.blocks();
      stats->rows_scanned +=
          static_cast<double>(r->row_count() + lfull.row_count());
      stats->batches += 2;
    }
    const RowHashIndex index = build(*r, r_idx);
    for (const Tuple& p : lfull.rows()) {
      index.probe(p, l_idx,
                  [&](const Tuple& d, int sign) { emit(sign, p, d); });
    }
  }
  if (!l->empty() && !r->empty()) {
    if (stats != nullptr) {
      stats->blocks_read += l->blocks() + r->blocks();
      stats->batches += 2;
    }
    // The correction term, subtracted: each pair's sign is negated.
    const RowHashIndex index = build(*l, l_idx);
    auto probe = [&](const Tuple& p, int p_sign) {
      index.probe(p, r_idx, [&](const Tuple& d, int sign) {
        emit(-sign * p_sign, d, p);
      });
    };
    for (const Tuple& t : r->inserts().rows()) probe(t, 1);
    for (const Tuple& t : r->deletes().rows()) probe(t, -1);
  }
  return out;
}

}  // namespace mvd
