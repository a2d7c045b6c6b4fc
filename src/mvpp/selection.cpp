// Selection algorithms. Every search prices candidate sets through
// FastMvppEvaluator, whatever cost model the evaluator carries (its
// placement is data the fast path reads): the local searches probe one-
// and two-node toggles incrementally, and the exact 2^n searches shard the
// mask range across threads with a private engine per worker. The
// std::set reference walk of MvppEvaluator is used only where a formula
// asks for one term (the Yang heuristic's Cs, the branch-and-bound bound)
// and to report each result's final costs.
#include "src/mvpp/selection.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/strings.hpp"
#include "src/common/units.hpp"
#include "src/lint/lint.hpp"
#include "src/mvpp/fast_eval.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

namespace {

/// Every algorithm funnels its finished result through here, so the
/// selection-stage lint hook sees each SelectionResult exactly once
/// before it escapes the library.
SelectionResult finish(const MvppEvaluator& eval, SelectionResult r,
                       std::optional<double> budget_blocks = std::nullopt) {
  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("selection/runs").increment();
    reg.counter(str_cat("selection/", r.algorithm, "/runs")).increment();
    reg.gauge(str_cat("selection/", r.algorithm, "/best_total"))
        .set(r.costs.total());
    reg.gauge(str_cat("selection/", r.algorithm, "/materialized"))
        .set(static_cast<double>(r.materialized.size()));
  }
  if (lint_hook_level() != LintHookLevel::kOff) {
    LintContext ctx;
    ctx.graph = &eval.graph();
    ctx.closures = &eval.closures();
    ctx.evaluator = &eval;
    ctx.selections.push_back({&r, budget_blocks});
    lint_stage_hook("selection", ctx);
  }
  return r;
}

/// Per-iteration best-total gauge of one algorithm, or nullptr when
/// counters are off. The handle is stable, so search loops set() it
/// freely as the incumbent improves.
Gauge* best_total_gauge(const char* algorithm) {
  if (!counters_enabled()) return nullptr;
  return &MetricsRegistry::global().gauge(
      str_cat("selection/", algorithm, "/best_total"));
}

}  // namespace

SelectionResult evaluate_strategy(const MvppEvaluator& eval, std::string name,
                                  MaterializedSet m) {
  SelectionResult r;
  r.algorithm = std::move(name);
  r.costs = eval.evaluate(m);
  r.materialized = std::move(m);
  return finish(eval, std::move(r));
}

SelectionResult select_nothing(const MvppEvaluator& eval) {
  return evaluate_strategy(eval, "materialize-nothing", {});
}

SelectionResult select_all_query_results(const MvppEvaluator& eval) {
  MaterializedSet m;
  for (NodeId q : eval.graph().query_ids()) {
    m.insert(eval.graph().node(q).children[0]);
  }
  return evaluate_strategy(eval, "materialize-all-queries", std::move(m));
}

SelectionResult select_all_operations(const MvppEvaluator& eval) {
  MaterializedSet m;
  for (NodeId v : eval.graph().operation_ids()) m.insert(v);
  return evaluate_strategy(eval, "materialize-everything", std::move(m));
}

SelectionResult yang_heuristic(const MvppEvaluator& eval, YangOptions options) {
  const MvppGraph& g = eval.graph();
  const GraphClosures& closures = eval.closures();
  MVD_TRACE_SPAN("selection", "yang-heuristic");
  std::size_t pruned_total = 0;
  SelectionResult r;
  r.algorithm = "yang-heuristic";

  // Step 2: candidates with positive weight, by descending weight. Each
  // node's weight is computed once (the sort comparator used to pay two
  // queries_using + bases_under walks per comparison).
  std::vector<double> weight_of(g.size(), 0.0);
  std::vector<NodeId> lv;
  for (NodeId v : closures.operation_ids()) {
    weight_of[static_cast<std::size_t>(v)] = eval.weight(v);
    if (weight_of[static_cast<std::size_t>(v)] > 0) lv.push_back(v);
  }
  std::sort(lv.begin(), lv.end(), [&](NodeId a, NodeId b) {
    const double wa = weight_of[static_cast<std::size_t>(a)];
    const double wb = weight_of[static_cast<std::size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;  // deterministic tie-break
  });
  {
    std::vector<std::string> names;
    for (NodeId v : lv) {
      names.push_back(g.node(v).name + "(w=" +
                      format_blocks(weight_of[static_cast<std::size_t>(v)]) +
                      ")");
    }
    r.trace.push_back("LV = <" + join(names, ", ") + ">");
  }

  // Walk LV by index with a pruned-flag mask — the old code popped the
  // front of the vector (O(n) per step) and erased pruned entries with
  // remove_if (another O(n) sweep per rejection).
  MaterializedSet m;
  std::vector<char> pruned(lv.size(), 0);
  for (std::size_t i = 0; i < lv.size(); ++i) {
    if (pruned[i]) continue;
    const NodeId v = lv[i];
    const MvppNode& n = g.node(v);

    if (options.skip_when_parents_materialized && !n.parents.empty()) {
      const bool all_parents = std::all_of(
          n.parents.begin(), n.parents.end(), [&](NodeId p) {
            return g.node(p).kind != MvppNodeKind::kQuery && m.contains(p);
          });
      if (all_parents) {
        r.trace.push_back(n.name + ": skipped, all parents materialized");
        continue;
      }
    }

    // Step 5: Cs = Σ_{q∈Ov} fq(q)·(Ca(v) − Σ_{u∈S{v}∩M} Ca(u))
    //             − fu-factor(v)·(recompute cost of v under M).
    // S{v}∩M via the precomputed descendant bitset: iterate the (small)
    // materialized set instead of walking the closure — same ascending
    // order, so the same floating-point sum.
    const NodeBitset& desc = closures.descendants(v);
    double replicated = 0;
    for (NodeId u : m) {
      if (desc.test(u)) replicated += g.node(u).full_cost;
    }
    double access_saving = 0;
    for (NodeId q : closures.queries_using(v)) {
      access_saving += g.node(q).frequency * (n.full_cost - replicated);
    }
    const double recompute = options.reuse_aware_maintenance_gain
                                 ? eval.produce_cost(v, m)
                                 : n.full_cost;
    const double upkeep = eval.update_factor(v) * recompute;
    const double cs = access_saving - upkeep;

    if (cs > 0) {
      m.insert(v);
      r.trace.push_back(n.name + ": Cs=" + format_blocks(cs) +
                        " > 0, materialize");
    } else {
      r.trace.push_back(n.name + ": Cs=" + format_blocks(cs) + " <= 0, reject");
      if (options.branch_pruning) {
        const NodeBitset& anc = closures.ancestors(v);
        std::size_t dropped = 0;
        for (std::size_t j = i + 1; j < lv.size(); ++j) {
          if (pruned[j]) continue;
          if (anc.test(lv[j]) || desc.test(lv[j])) {
            pruned[j] = 1;
            ++dropped;
          }
        }
        if (dropped > 0) {
          pruned_total += dropped;
          r.trace.push_back("  pruned " + std::to_string(dropped) +
                            " node(s) on the same branch");
        }
      }
    }
  }

  // Step 9: remove v whose direct destinations are all materialized —
  // guarded so cleanup never worsens the solution.
  if (options.final_cleanup) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId v : m) {
        const MvppNode& n = g.node(v);
        if (n.parents.empty()) continue;
        const bool covered = std::all_of(
            n.parents.begin(), n.parents.end(), [&](NodeId p) {
              return g.node(p).kind != MvppNodeKind::kQuery && m.contains(p);
            });
        if (!covered) continue;
        MaterializedSet without = m;
        without.erase(v);
        if (eval.total_cost(without) <= eval.total_cost(m)) {
          r.trace.push_back(n.name +
                            ": removed in cleanup (all destinations "
                            "materialized)");
          m = std::move(without);
          changed = true;
          break;
        }
      }
    }
  }

  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("selection/yang/candidates").add(static_cast<double>(lv.size()));
    reg.counter("selection/yang/admitted").add(static_cast<double>(m.size()));
    reg.counter("selection/yang/pruned").add(static_cast<double>(pruned_total));
  }
  r.costs = eval.evaluate(m);
  r.materialized = std::move(m);
  return finish(eval, std::move(r));
}

namespace {

// Shared driver for the two 2^n enumerations. Shards the mask range
// across threads, each worker pricing subsets with its own fast engine;
// the reduction (lowest cost, then lowest mask — masks assign bit i to
// candidates[i], ids ascending) is exactly the winner the serial
// first-strict-improvement loop keeps, so the parallel result is
// bit-identical to the serial one. `admit(mask)` filters subsets (the
// space budget); return false to skip pricing.
struct MaskSearchBest {
  double cost = std::numeric_limits<double>::infinity();
  std::size_t mask = 0;
  bool valid = false;
};

template <typename Admit>
MaskSearchBest mask_search(const MvppEvaluator& eval,
                           const std::vector<NodeId>& candidates,
                           std::size_t threads, const Admit& admit) {
  const std::size_t combos = std::size_t{1} << candidates.size();
  if (threads == 0) threads = recommended_threads(combos);
  // Below ~4k subsets the thread spawn outweighs the work.
  if (combos < 4096) threads = 1;
  std::vector<MaskSearchBest> bests(threads);
  parallel_shards(
      combos, threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        FastMvppEvaluator fast(eval, eval.closures());
        FastMaterializedSet m(fast.universe());
        MaskSearchBest& best = bests[shard];
        for (std::size_t mask = begin; mask < end; ++mask) {
          if (!admit(mask)) continue;
          m.clear();
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (mask & (std::size_t{1} << i)) m.set(candidates[i]);
          }
          const double cost = fast.total_cost(m);
          if (!best.valid || cost < best.cost) {
            best.cost = cost;
            best.mask = mask;
            best.valid = true;
          }
        }
      });
  MaskSearchBest overall;
  for (const MaskSearchBest& b : bests) {
    if (!b.valid) continue;
    if (!overall.valid || b.cost < overall.cost ||
        (b.cost == overall.cost && b.mask < overall.mask)) {
      overall = b;
    }
  }
  return overall;
}

/// Throws PlanError when `candidates` exceed the caller's limit or do not
/// fit the subset mask (one bit per candidate in a std::size_t), whatever
/// the limit says.
void check_mask_search(const char* search, std::size_t candidates,
                       std::size_t max_candidates) {
  if (candidates > max_candidates) {
    throw PlanError(str_cat(search, " over ", candidates,
                            " candidates exceeds the limit of ",
                            max_candidates));
  }
  constexpr std::size_t kMaskBits = std::numeric_limits<std::size_t>::digits;
  if (candidates >= kMaskBits) {
    throw PlanError(str_cat(search, " over ", candidates,
                            " candidates does not fit a ", kMaskBits,
                            "-bit subset mask"));
  }
}

MaterializedSet mask_to_set(const std::vector<NodeId>& candidates,
                            std::size_t mask) {
  MaterializedSet m;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (mask & (std::size_t{1} << i)) m.insert(candidates[i]);
  }
  return m;
}

}  // namespace

SelectionResult exhaustive_optimal(const MvppEvaluator& eval,
                                   std::size_t max_candidates,
                                   std::size_t threads) {
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  check_mask_search("exhaustive search", candidates.size(), max_candidates);
  MVD_TRACE_SPAN("selection", "exhaustive-optimal");
  if (counters_enabled()) {
    MetricsRegistry::global().counter("selection/exhaustive/masks")
        .add(static_cast<double>(std::size_t{1} << candidates.size()));
  }
  SelectionResult r;
  r.algorithm = "exhaustive-optimal";
  const MaskSearchBest best =
      mask_search(eval, candidates, threads, [](std::size_t) { return true; });
  MaterializedSet best_set = mask_to_set(candidates, best.mask);
  r.costs = eval.evaluate(best_set);
  r.materialized = std::move(best_set);
  return finish(eval, std::move(r));
}

namespace {

struct BnbContext {
  const MvppEvaluator* eval = nullptr;
  std::vector<NodeId> candidates;  // decision order
  MaterializedSet included;
  double best_cost = 0;
  MaterializedSet best_set;
  std::size_t nodes_visited = 0;
  std::size_t nodes_pruned = 0;
  Gauge* best_gauge = nullptr;  // per-improvement incumbent gauge

  // Lower bound for the current partial decision: included members are
  // fixed in, candidates[depth..] are free. The query side is bounded by
  // materializing every free candidate (query cost is monotone
  // non-increasing in M); each included view's maintenance is bounded by
  // recomputing against the fullest possible frontier (reuse-aware
  // maintenance is non-increasing in M; the no-reuse policy is constant,
  // for which this is exact).
  double lower_bound(std::size_t depth) const {
    MaterializedSet fullest = included;
    for (std::size_t i = depth; i < candidates.size(); ++i) {
      fullest.insert(candidates[i]);
    }
    double bound = eval->query_processing_cost(fullest);
    for (NodeId v : included) bound += eval->maintenance_cost(v, fullest);
    return bound;
  }

  void visit(std::size_t depth) {
    ++nodes_visited;
    if (lower_bound(depth) >= best_cost - 1e-9) {
      ++nodes_pruned;
      return;
    }
    if (depth == candidates.size()) {
      const double cost = eval->total_cost(included);
      if (cost < best_cost) {
        best_cost = cost;
        best_set = included;
        if (best_gauge != nullptr) best_gauge->set(best_cost);
      }
      return;
    }
    const NodeId v = candidates[depth];
    // Include-first: high-weight candidates usually belong in M, so the
    // incumbent improves early and prunes more.
    included.insert(v);
    visit(depth + 1);
    included.erase(v);
    visit(depth + 1);
  }
};

}  // namespace

SelectionResult branch_and_bound_optimal(const MvppEvaluator& eval,
                                         std::size_t max_candidates) {
  BnbContext ctx;
  ctx.eval = &eval;
  ctx.candidates = eval.graph().operation_ids();
  if (ctx.candidates.size() > max_candidates) {
    throw PlanError(str_cat("branch and bound over ", ctx.candidates.size(),
                            " candidates exceeds the limit of ",
                            max_candidates));
  }
  // Decide high-weight nodes first.
  std::sort(ctx.candidates.begin(), ctx.candidates.end(),
            [&](NodeId a, NodeId b) {
              const double wa = eval.weight(a);
              const double wb = eval.weight(b);
              if (wa != wb) return wa > wb;
              return a < b;
            });
  MVD_TRACE_SPAN("selection", "branch-and-bound");
  // Seed the incumbent with the greedy solution.
  ctx.best_set = greedy_incremental(eval).materialized;
  ctx.best_cost = eval.total_cost(ctx.best_set);
  ctx.best_gauge = best_total_gauge("branch-and-bound");
  ctx.visit(0);
  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("selection/bnb/nodes_visited")
        .add(static_cast<double>(ctx.nodes_visited));
    reg.counter("selection/bnb/nodes_pruned")
        .add(static_cast<double>(ctx.nodes_pruned));
  }

  SelectionResult r;
  r.algorithm = "branch-and-bound";
  r.costs = eval.evaluate(ctx.best_set);
  r.materialized = std::move(ctx.best_set);
  // The full decision tree has 2^(n+1) - 1 nodes; a double holds that
  // count (exactly up to n = 52) for any n the search can be asked for.
  const double tree_nodes =
      std::ldexp(1.0, static_cast<int>(ctx.candidates.size()) + 1) - 1;
  r.trace.push_back(str_cat("visited ", ctx.nodes_visited, " search nodes of ",
                            std::fixed, std::setprecision(0), tree_nodes,
                            " possible"));
  return finish(eval, std::move(r));
}

SelectionResult greedy_incremental(const MvppEvaluator& eval) {
  MVD_TRACE_SPAN("selection", "greedy-incremental");
  SelectionResult r;
  r.algorithm = "greedy-incremental";
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  FastMvppEvaluator fast(eval, eval.closures());
  fast.load(FastMaterializedSet(fast.universe()));
  Gauge* best_gauge = best_total_gauge("greedy-incremental");
  std::size_t probes = 0;
  double current = fast.current_total();
  while (true) {
    std::optional<NodeId> best_v;
    double best_cost = current;
    for (NodeId v : candidates) {
      if (fast.current().test(v)) continue;
      const double cost = fast.probe_toggle(v);
      ++probes;
      if (cost < best_cost) {
        best_cost = cost;
        best_v = v;
      }
    }
    if (!best_v.has_value()) break;
    fast.commit_toggle(*best_v);
    if (best_gauge != nullptr) best_gauge->set(best_cost);
    r.trace.push_back(eval.graph().node(*best_v).name + ": total " +
                      format_blocks(current) + " -> " +
                      format_blocks(best_cost));
    current = best_cost;
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("selection/greedy/probes")
        .add(static_cast<double>(probes));
  }
  MaterializedSet m = to_materialized_set(fast.current());
  r.costs = eval.evaluate(m);
  r.materialized = std::move(m);
  return finish(eval, std::move(r));
}

SelectionResult local_search(const MvppEvaluator& eval, MaterializedSet start,
                             std::size_t max_rounds) {
  MVD_TRACE_SPAN("selection", "local-search");
  SelectionResult r;
  r.algorithm = "local-search";
  eval.check_materializable(start);
  const std::vector<NodeId> candidates = eval.graph().operation_ids();

  FastMvppEvaluator fast(eval, eval.closures());
  fast.load(to_fast_set(start, fast.universe()));
  Gauge* best_gauge = best_total_gauge("local-search");
  std::size_t rounds_taken = 0;
  double current_cost = fast.current_total();
  for (std::size_t round = 0; round < max_rounds; ++round) {
    enum class Move { kNone, kToggle, kSwap };
    Move best_move = Move::kNone;
    NodeId move_a = -1;
    NodeId move_b = -1;
    double best_cost = current_cost;
    std::string best_desc;

    auto consider = [&](Move move, NodeId a, NodeId b, double cost,
                        std::string desc) {
      if (cost < best_cost - 1e-9) {
        best_cost = cost;
        best_move = move;
        move_a = a;
        move_b = b;
        best_desc = std::move(desc);
      }
    };

    const FastMaterializedSet& current = fast.current();
    for (NodeId v : candidates) {
      const bool member = current.test(v);
      const double cost = fast.probe_toggle(v);
      consider(Move::kToggle, v, -1, cost,
               (member ? "drop " : "add ") + eval.graph().node(v).name);
    }
    // Swaps: replace one member with one non-member.
    current.for_each([&](NodeId out) {
      for (NodeId in : candidates) {
        if (current.test(in)) continue;
        const double cost = fast.probe_swap(out, in);
        consider(Move::kSwap, out, in, cost,
                 "swap " + eval.graph().node(out).name + " -> " +
                     eval.graph().node(in).name);
      }
    });

    if (best_move == Move::kNone) break;  // local optimum
    fast.commit_toggle(move_a);
    if (best_move == Move::kSwap) fast.commit_toggle(move_b);
    ++rounds_taken;
    current_cost = best_cost;
    if (best_gauge != nullptr) best_gauge->set(best_cost);
    r.trace.push_back(best_desc + " -> " + format_blocks(best_cost));
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("selection/local_search/rounds")
        .add(static_cast<double>(rounds_taken));
  }
  MaterializedSet m = to_materialized_set(fast.current());
  r.costs = eval.evaluate(m);
  r.materialized = std::move(m);
  return finish(eval, std::move(r));
}

double total_view_blocks(const MvppGraph& graph, const MaterializedSet& m) {
  double blocks = 0;
  for (NodeId v : m) blocks += graph.node(v).blocks;
  return blocks;
}

SelectionResult budgeted_greedy(const MvppEvaluator& eval,
                                double budget_blocks) {
  if (!(budget_blocks >= 0)) throw PlanError("negative space budget");
  MVD_TRACE_SPAN("selection", "budgeted-greedy");
  SelectionResult r;
  r.algorithm = "budgeted-greedy";
  const std::vector<NodeId> candidates = eval.graph().operation_ids();

  FastMvppEvaluator fast(eval, eval.closures());
  fast.load(FastMaterializedSet(fast.universe()));
  Gauge* best_gauge = best_total_gauge("budgeted-greedy");
  std::size_t probes = 0;
  double used = 0;
  double current = fast.current_total();
  while (true) {
    std::optional<NodeId> best_v;
    double best_density = 0;
    double best_cost = current;
    for (NodeId v : candidates) {
      if (fast.current().test(v)) continue;
      const double blocks = std::max(eval.graph().node(v).blocks, 1e-9);
      if (used + blocks > budget_blocks) continue;
      const double cost = fast.probe_toggle(v);
      ++probes;
      const double density = (current - cost) / blocks;
      if (cost < current && density > best_density) {
        best_density = density;
        best_v = v;
        best_cost = cost;
      }
    }
    if (!best_v.has_value()) break;
    fast.commit_toggle(*best_v);
    used += eval.graph().node(*best_v).blocks;
    r.trace.push_back(eval.graph().node(*best_v).name + ": total " +
                      format_blocks(current) + " -> " +
                      format_blocks(best_cost) + ", space " +
                      format_blocks(used) + "/" +
                      format_blocks(budget_blocks));
    current = best_cost;
    if (best_gauge != nullptr) best_gauge->set(current);
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("selection/budgeted_greedy/probes")
        .add(static_cast<double>(probes));
  }
  MaterializedSet m = to_materialized_set(fast.current());
  r.costs = eval.evaluate(m);
  r.materialized = std::move(m);
  return finish(eval, std::move(r), budget_blocks);
}

SelectionResult budgeted_optimal(const MvppEvaluator& eval,
                                 double budget_blocks,
                                 std::size_t max_candidates,
                                 std::size_t threads) {
  if (!(budget_blocks >= 0)) throw PlanError("negative space budget");
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  check_mask_search("budgeted search", candidates.size(), max_candidates);
  MVD_TRACE_SPAN("selection", "budgeted-optimal");
  SelectionResult r;
  r.algorithm = "budgeted-optimal";
  if (counters_enabled()) {
    MetricsRegistry::global().counter("selection/budgeted_optimal/masks")
        .add(static_cast<double>(std::size_t{1} << candidates.size()));
  }
  // Per-candidate block sizes, so the budget filter is a running sum over
  // mask bits instead of a set rebuild.
  std::vector<double> blocks_of(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    blocks_of[i] = eval.graph().node(candidates[i]).blocks;
  }
  const auto fits = [&](std::size_t mask) {
    double blocks = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (mask & (std::size_t{1} << i)) {
        blocks += blocks_of[i];
        if (blocks > budget_blocks) return false;
      }
    }
    return true;
  };
  const MaskSearchBest best = mask_search(eval, candidates, threads, fits);
  MaterializedSet best_set;
  if (best.valid) best_set = mask_to_set(candidates, best.mask);
  r.costs = eval.evaluate(best_set);
  r.materialized = std::move(best_set);
  return finish(eval, std::move(r), budget_blocks);
}

SelectionResult simulated_annealing(const MvppEvaluator& eval,
                                    AnnealingOptions options) {
  MVD_TRACE_SPAN("selection", "simulated-annealing");
  SelectionResult r;
  r.algorithm = "simulated-annealing";
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  if (candidates.empty()) {
    r.costs = eval.evaluate({});
    return finish(eval, std::move(r));
  }

  FastMvppEvaluator fast(eval, eval.closures());
  fast.load(
      to_fast_set(greedy_incremental(eval).materialized, fast.universe()));
  Gauge* best_gauge = best_total_gauge("simulated-annealing");
  std::size_t accepted = 0;
  double current_cost = fast.current_total();
  FastMaterializedSet best = fast.current();
  double best_cost = current_cost;

  Rng rng(options.seed);
  double temperature =
      std::max(options.initial_temperature * eval.total_cost({}), 1e-9);
  for (std::size_t it = 0; it < options.iterations; ++it) {
    const NodeId v = candidates[rng.index(candidates.size())];
    const double next_cost = fast.probe_toggle(v);
    const double delta = next_cost - current_cost;
    if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
      fast.commit_toggle(v);
      ++accepted;
      current_cost = next_cost;
      if (current_cost < best_cost) {
        best = fast.current();
        best_cost = current_cost;
        if (best_gauge != nullptr) best_gauge->set(best_cost);
      }
    }
    temperature *= options.cooling;
  }
  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("selection/annealing/iterations")
        .add(static_cast<double>(options.iterations));
    reg.counter("selection/annealing/accepted")
        .add(static_cast<double>(accepted));
  }
  r.materialized = to_materialized_set(best);
  r.costs = eval.evaluate(r.materialized);
  return finish(eval, std::move(r));
}

}  // namespace mvd
