// Sharded-execution consistency rules: when a deploy/refresh ran against
// a partitioned Database, the per-shard counters it records must
// reconcile with the recorded totals — a shard whose bucket rows went
// missing (or were double-counted) shows up as a sum mismatch long before
// a query reads the hole.
#include <cmath>

#include "src/common/strings.hpp"
#include "src/exec/executor.hpp"
#include "src/lint/registry.hpp"

namespace mvd {

namespace {

void check_shard_stats_consistent(const LintContext& ctx, RuleEmitter& out) {
  // Deploy and refresh record, for every hash-partitioned view, the
  // view's total stored rows in stats->rows_out[name] and each shard's
  // rows in stats->per_shard[s].rows_out[name]. The shards partition the
  // view, so the per-shard counts must sum to the recorded total; a
  // mismatch means a shard's rows drifted (lost bucket, double
  // application, stats recorded from a different run). Views with no
  // per-shard entry are stored once and skip.
  if (ctx.exec_stats == nullptr || ctx.exec_stats->per_shard.empty()) return;
  const MvppGraph& g = *ctx.graph;
  for (const LintContext::SelectionCheck& check : ctx.selections) {
    const SelectionResult& r = *check.result;
    for (NodeId v : r.materialized) {
      if (v < 0 || static_cast<std::size_t>(v) >= g.size()) continue;
      const std::string& name = g.node(v).name;
      const auto it = ctx.exec_stats->rows_out.find(name);
      if (it == ctx.exec_stats->rows_out.end()) continue;
      double shard_sum = 0;
      bool partitioned = false;
      for (const ExecStats& shard : ctx.exec_stats->per_shard) {
        const auto sit = shard.rows_out.find(name);
        if (sit == shard.rows_out.end()) continue;
        partitioned = true;
        shard_sum += sit->second;
      }
      if (!partitioned) continue;
      if (shard_sum != it->second) {
        out.emit_selection(
            r,
            str_cat("partitioned view '", name, "' recorded ", it->second,
                    " total rows but its per-shard slices sum to ", shard_sum),
            "re-deploy (or refresh with stats) so every shard's slice is "
            "accounted for");
      }
    }
  }
}

}  // namespace

void register_distributed_rules(LintRegistry& registry) {
  registry.add({"distributed/shard-stats-consistent", LintPhase::kSelection,
                Severity::kError,
                "per-shard stored rows of partitioned views sum to the "
                "recorded totals",
                check_shard_stats_consistent});
}

}  // namespace mvd
