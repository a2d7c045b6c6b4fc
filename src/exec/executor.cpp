#include "src/exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/algebra/eval.hpp"
#include "src/check/check.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/exec/vectorized.hpp"
#include "src/obs/publish.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

/// Per-run row-engine state. Per-operator block/row tallies accumulate
/// locally (no registry traffic inside the plan walk) and flush once at
/// the end of run().
struct Executor::RunContext {
  const RunScope* scope = nullptr;
  std::map<const LogicalOp*, Rows> memo;
  double op_blocks[kExecOpKinds] = {};
  double op_rows[kExecOpKinds] = {};
};

void publish_op_tallies(const char* engine, const double* blocks,
                        const double* rows) {
  MetricsRegistry& reg = MetricsRegistry::global();
  for (std::size_t k = 0; k < kExecOpKinds; ++k) {
    reg.counter(str_cat("exec/op/", kExecOpNames[k], "/blocks_read"))
        .add(blocks[k]);
    reg.counter(str_cat("exec/op/", kExecOpNames[k], "/rows_scanned"))
        .add(rows[k]);
    reg.counter(str_cat("exec/", engine, "/op/", kExecOpNames[k],
                        "/blocks_read"))
        .add(blocks[k]);
    reg.counter(str_cat("exec/", engine, "/op/", kExecOpNames[k],
                        "/rows_scanned"))
        .add(rows[k]);
  }
}

const char* exec_mode_name(ExecMode mode) {
  return mode == ExecMode::kVectorized ? "vec" : "row";
}

ExecMode default_exec_mode() {
  if (const char* env = std::getenv("MVD_EXEC_MODE")) {
    const std::string m(env);
    if (m == "vectorized" || m == "vec") return ExecMode::kVectorized;
  }
  return ExecMode::kRow;
}

std::size_t default_exec_threads() {
  const char* env = std::getenv("MVD_EXEC_THREADS");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long n = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0') return 1;
  return static_cast<std::size_t>(n);
}

Executor::Executor(const Database& db, ExecMode mode, std::size_t threads)
    : db_(&db), mode_(mode), threads_(threads) {}

Executor::Executor(std::shared_ptr<const Database> db, ExecMode mode,
                   std::size_t threads)
    : Executor(*db, mode, threads) {
  pinned_ = std::move(db);
}

Table Executor::run(const PlanPtr& plan, ExecStats* stats,
                    const RunScope* scope) const {
  MVD_ASSERT(plan != nullptr);
  // Static pre-flight (MVD_CHECK=off|warn|error): reject plans that would
  // die row-by-row before any engine touches data.
  check_stage_hook("exec", plan, db_);
  // With counters on, always account into an ExecStats — the registry
  // sees the same numbers whether or not the caller asked for a copy.
  const bool publish = counters_enabled();
  ExecStats local;
  ExecStats* s = stats;
  if (publish && s == nullptr) s = &local;

  // Callers may pass an accumulator that is already non-zero; the engines
  // only add, so the entry values subtract out to this run's deltas.
  const double blocks0 = s != nullptr ? s->blocks_read : 0;
  const double rows0 = s != nullptr ? s->rows_scanned : 0;
  const double batches0 = s != nullptr ? s->batches : 0;

  const char* engine = exec_mode_name(mode_);
  TraceSpan span("exec",
                 mode_ == ExecMode::kVectorized ? "vec-run" : "row-run");
  Table out = [&] {
    if (mode_ == ExecMode::kVectorized) {
      return run_vectorized(*db_, plan, s, threads_, scope);
    }
    RunContext ctx;
    ctx.scope = scope;
    if (scope != nullptr && scope->given_node != nullptr) {
      ctx.memo.emplace(scope->given_node,
                       Rows::all(TableRef(TableRef{}, scope->given)));
    }
    const Rows result = run_node(plan, s, ctx);
    Table t = Table::rebind(result.schema(), *result.table, result.begin,
                            result.end);
    if (publish) publish_op_tallies(engine, ctx.op_blocks, ctx.op_rows);
    return t;
  }();
  if (span.active()) {
    span.arg("rows_out", static_cast<double>(out.row_count()));
    if (s != nullptr) {
      span.arg("blocks_read", s->blocks_read - blocks0);
      span.arg("rows_scanned", s->rows_scanned - rows0);
    }
  }
  if (publish && s != nullptr) {
    ExecStats run_stats;
    run_stats.blocks_read = s->blocks_read - blocks0;
    run_stats.rows_scanned = s->rows_scanned - rows0;
    run_stats.batches = s->batches - batches0;
    publish_exec_stats(run_stats, engine);
  }
  return out;
}

Executor::Rows Executor::run_node(const PlanPtr& plan, ExecStats* stats,
                                  RunContext& ctx) const {
  if (auto it = ctx.memo.find(plan.get()); it != ctx.memo.end()) {
    return it->second;
  }
  // Children first (left to right, as before), so the operator's span and
  // per-operator tallies cover only its own work.
  std::vector<Rows> in;
  in.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    in.push_back(run_node(c, stats, ctx));
  }

  const double blocks0 = stats != nullptr ? stats->blocks_read : 0;
  const double rows0 = stats != nullptr ? stats->rows_scanned : 0;
  TraceSpan span("exec.row", kExecOpNames[static_cast<std::size_t>(
                                 plan->kind())]);
  Rows result;
  switch (plan->kind()) {
    case OpKind::kScan:
      result = exec_scan(static_cast<const ScanOp&>(*plan), stats, ctx.scope);
      break;
    case OpKind::kSelect:
      result = exec_select(static_cast<const SelectOp&>(*plan), in[0], stats);
      break;
    case OpKind::kProject:
      result = exec_project(static_cast<const ProjectOp&>(*plan), in[0]);
      break;
    case OpKind::kJoin:
      result = exec_join(static_cast<const JoinOp&>(*plan), in[0], in[1],
                         stats);
      break;
    case OpKind::kAggregate:
      result = exec_aggregate(static_cast<const AggregateOp&>(*plan), in[0],
                              stats);
      break;
  }
  MVD_ASSERT(result.table != nullptr);
  if (stats != nullptr) {
    stats->rows_out[plan->label()] = static_cast<double>(result.size());
    const auto k = static_cast<std::size_t>(plan->kind());
    ctx.op_blocks[k] += stats->blocks_read - blocks0;
    ctx.op_rows[k] += stats->rows_scanned - rows0;
  }
  if (span.active()) {
    span.arg("label", plan->label());
    span.arg("rows_out", static_cast<double>(result.size()));
    if (stats != nullptr) {
      span.arg("blocks_read", stats->blocks_read - blocks0);
      span.arg("rows_scanned", stats->rows_scanned - rows0);
    }
  }
  ctx.memo.emplace(plan.get(), result);
  return result;
}

Executor::Rows Executor::exec_scan(const ScanOp& op, ExecStats* stats,
                                   const RunScope* scope) const {
  const Table& src = db_->table(op.relation());
  // A bucket-scoped run reads only the bucket's row range.
  std::size_t begin = 0;
  std::size_t end = src.row_count();
  if (scope != nullptr && scope->relation == op.relation()) {
    begin = scope->begin;
    end = scope->end;
  }
  if (stats != nullptr) {
    stats->blocks_read += Table::blocks_of(end - begin, src.blocking_factor());
    stats->rows_scanned += static_cast<double>(end - begin);
    stats->batches += 1;
  }
  if (src.schema().size() != op.output_schema().size()) {
    throw ExecError("stored table '" + op.relation() +
                    "' does not match the scan schema");
  }
  // When the stored schema already matches the plan's, alias the stored
  // table instead of copying it (the database outlives the run). Stored
  // views read back through named scans hit this path every time.
  if (src.schema() == op.output_schema()) {
    return Rows{TableRef(TableRef{}, &src), begin, end};
  }
  // Otherwise rebind under the plan's (qualified) schema so downstream
  // binding by qualified name works even when the stored table has bare
  // names — one bulk row copy, types validated per column.
  auto rebound = std::make_shared<Table>(
      Table::rebind(op.output_schema(), src, begin, end));
  return Rows{rebound, 0, end - begin};
}

Executor::Rows Executor::exec_select(const SelectOp& op, const Rows& in,
                                     ExecStats* stats) const {
  if (stats != nullptr) {
    stats->blocks_read += in.blocks();
    stats->rows_scanned += static_cast<double>(in.size());
    stats->batches += 1;
  }
  const CompiledExpr pred(op.predicate(), in.schema());
  auto out =
      std::make_shared<Table>(in.schema(), in.table->blocking_factor());
  const RowRange rows = in.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (pred.matches(rows[i])) out->append_shared(*in.table, in.begin + i);
  }
  return Rows::all(std::move(out));
}

Executor::Rows Executor::exec_project(const ProjectOp& op,
                                      const Rows& in) const {
  std::vector<std::size_t> indices;
  indices.reserve(op.columns().size());
  for (const std::string& c : op.columns()) {
    indices.push_back(in.schema().index_of(c));
  }
  auto out = std::make_shared<Table>(op.output_schema(),
                                     in.table->blocking_factor());
  for (const Tuple& t : in.rows()) {
    Tuple projected;
    projected.reserve(indices.size());
    for (std::size_t i : indices) projected.push_back(t[i]);
    out->append(std::move(projected));
  }
  return Rows::all(std::move(out));
}

Executor::Rows Executor::exec_join(const JoinOp& op, const Rows& left,
                                   const Rows& right, ExecStats* stats) const {
  const JoinSplit split = split_join_predicate(op, left.schema(),
                                               right.schema());
  const RowJoiner joiner(split, left.schema(), right.schema());
  auto out = std::make_shared<Table>(op.output_schema(),
                                     left.table->blocking_factor());
  auto emit = [&](const Tuple& l, const Tuple& r) {
    if (auto row = joiner.join(l, r)) out->append(std::move(*row));
  };

  if (stats != nullptr) {
    stats->rows_scanned += static_cast<double>(left.size() + right.size());
    stats->batches += 2;
  }
  if (!split.equi.empty()) {
    // Build on the smaller side, probe with the larger.
    const bool build_right = right.size() <= left.size();
    std::vector<std::size_t> build_idx, probe_idx;
    for (const auto& [li, ri] : split.equi) {
      build_idx.push_back(build_right ? ri : li);
      probe_idx.push_back(build_right ? li : ri);
    }
    const RowRange build = (build_right ? right : left).rows();
    RowHashIndex index(std::move(build_idx), build.size());
    for (const Tuple& b : build) index.insert(b);
    for (const Tuple& p : (build_right ? left : right).rows()) {
      index.probe(p, probe_idx, [&](const Tuple& b, int) {
        if (build_right) {
          emit(p, b);
        } else {
          emit(b, p);
        }
      });
    }
    if (stats != nullptr) stats->blocks_read += left.blocks() + right.blocks();
  } else {
    // Nested loop (cross product or theta join).
    for (const Tuple& l : left.rows()) {
      for (const Tuple& r : right.rows()) emit(l, r);
    }
    if (stats != nullptr) {
      // Outer = the smaller input, matching CostModel::join_op_cost (the
      // previous formula charged the left side as outer unconditionally,
      // double-counting whenever the left input was the larger one).
      const double outer = std::min(left.blocks(), right.blocks());
      const double inner = std::max(left.blocks(), right.blocks());
      stats->blocks_read += outer + outer * inner;
    }
  }
  return Rows::all(std::move(out));
}

Executor::Rows Executor::exec_aggregate(const AggregateOp& op, const Rows& in,
                                        ExecStats* stats) const {
  if (stats != nullptr) {
    stats->rows_scanned += static_cast<double>(in.size());
    stats->batches += 1;
  }
  GroupTable groups(op, in.schema());
  for (const Tuple& t : in.rows()) groups.feed(t);
  auto out = std::make_shared<Table>(op.output_schema(),
                                     in.table->blocking_factor());
  groups.emit(*out);
  return Rows::all(std::move(out));
}

bool same_bag(const Table& a, const Table& b) {
  if (a.schema().size() != b.schema().size()) return false;
  if (a.row_count() != b.row_count()) return false;
  // Doubles compare at the stream's 6 significant digits, which absorbs
  // the last-bit differences of summing in another order (the engines
  // aggregate in different orders); every other value by its text.
  auto key = [](const Tuple& t) {
    std::string k;
    for (const Value& v : t) {
      if (v.type() == ValueType::kDouble) {
        std::ostringstream os;
        os << v.as_double();
        k += os.str();
      } else {
        k += v.to_string();
      }
      k += '\x1f';
    }
    return k;
  };
  std::map<std::string, int> counts;
  for (const Tuple& t : a.rows()) counts[key(t)]++;
  for (const Tuple& t : b.rows()) {
    if (--counts[key(t)] < 0) return false;
  }
  return true;
}

}  // namespace mvd
