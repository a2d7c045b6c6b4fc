// Fast-path cost evaluation (same semantics as MvppEvaluator, different
// machinery).
//
// MvppEvaluator is the reference: a recursive std::set walk per call. The
// selection algorithms price thousands of one-bit variations of a set, so
// they drive this engine instead, for every evaluator — its placement
// (compute/storage sites and per-block link prices, one free site by
// default) is data, read once here:
//
//   - FastMaterializedSet is a dense NodeBitset: O(1) membership, copies
//     that are a few words.
//   - Node payloads (op_cost, blocks, rows, pure-equality flags, update
//     factors, the from-base recompute cost) and the transfer charges
//     (per child edge for a virtual or stored child, per query read, per
//     refresh shipment) live in flat arrays, built once from the
//     annotated graph + GraphClosures + placement.
//   - produce-cost memoization is a flat double array invalidated by
//     bumping an epoch counter — no clearing, no allocation per probe.
//   - load()/probe/commit keep the per-query answer terms and per-member
//     maintenance terms of the current set cached. Toggling v can only
//     change the terms whose owner lies in v's strict-ancestor cone (a
//     node's production cost, transfer charges included, depends on
//     exactly the membership of its descendants), so a probe recomputes
//     just those terms and re-sums. When the cone spans the whole graph
//     the probe degrades gracefully into a full evaluation.
//
// Every sum is accumulated in the same order as the reference walk
// (queries ascending, members ascending, children in declaration order,
// each transfer charge right after its child's produce term), so full
// evaluations, probes, and committed totals are bit-identical to
// MvppEvaluator::total_cost — searches driven by this engine pick the
// same sets, not just similarly-priced ones.
//
// Instances are cheap to build (one pass over the graph) and are NOT
// thread-safe: the parallel search drivers build one per worker.
#pragma once

#include <cstdint>
#include <vector>

#include "src/mvpp/closures.hpp"
#include "src/mvpp/evaluation.hpp"

namespace mvd {

using FastMaterializedSet = NodeBitset;

/// Dense representation of a MaterializedSet for `universe` graph nodes.
FastMaterializedSet to_fast_set(const MaterializedSet& m, std::size_t universe);

/// Back to the std::set representation used by the public API.
MaterializedSet to_materialized_set(const FastMaterializedSet& m);

class FastMvppEvaluator {
 public:
  /// Snapshot of `eval`'s graph/policy/index/placement. `closures` must
  /// describe the same graph and outlive the evaluator.
  FastMvppEvaluator(const MvppEvaluator& eval, const GraphClosures& closures);

  /// Flushes the local work tallies (probes vs full loads, memo epoch
  /// hits, reused vs recomputed terms) to the global MetricsRegistry
  /// under "selection/fast_eval/..." when counters are enabled.
  ~FastMvppEvaluator();

  std::size_t universe() const { return node_count_; }
  const GraphClosures& closures() const { return *closures_; }

  // ---- Stateless full evaluation (epoch-memoized) ----

  MvppCosts evaluate(const FastMaterializedSet& m);
  double total_cost(const FastMaterializedSet& m) { return evaluate(m).total(); }

  // ---- Incremental session over one evolving set ----

  /// Full evaluation of `m`, caching every per-query and per-member term.
  void load(const FastMaterializedSet& m);

  const FastMaterializedSet& current() const { return current_; }
  double current_total() const { return total_; }

  /// Total cost of current() with v toggled; cached state unchanged.
  double probe_toggle(NodeId v);
  /// Total cost of current() with `out` dropped and `in` added.
  double probe_swap(NodeId out, NodeId in);
  /// Signed cost change of toggling v: probe_toggle(v) − current_total().
  double delta_cost(NodeId v) { return probe_toggle(v) - total_; }

  /// Apply a toggle and update the cached terms.
  void commit_toggle(NodeId v);

  /// Cost evaluations answered so far (full + probes); bench telemetry.
  std::size_t evaluations() const { return evaluations_; }

 private:
  struct QueryTerm {
    NodeId query = -1;
    NodeId result = -1;
    double frequency = 0;
    double read_virtual = 0;  // shipping the produced result to the query
    double read_stored = 0;   // shipping the stored result to the query
  };

  double produce(NodeId v, const FastMaterializedSet& m);
  double op_contribution(NodeId v, const FastMaterializedSet& m) const;
  double answer(const QueryTerm& q, const FastMaterializedSet& m);
  double maintenance_term(NodeId v, const FastMaterializedSet& m);
  /// Shared probe/commit body over one or two toggled nodes.
  double eval_toggled(const NodeId* toggles, std::size_t count, bool commit);
  bool term_affected(NodeId owner, const NodeId* toggles,
                     std::size_t count) const;

  const GraphClosures* closures_;
  MaintenancePolicy policy_;
  IndexPolicy index_;
  std::size_t node_count_ = 0;

  // Flat per-node payloads (indexed by NodeId).
  std::vector<MvppNodeKind> kind_;
  std::vector<double> op_cost_;
  std::vector<double> blocks_;
  std::vector<double> rows_;
  std::vector<double> from_base_;       // produce(v, ∅): no-reuse recompute
  std::vector<double> store_charge_;    // refresh shipment to storage site
  std::vector<double> update_factor_;
  std::vector<char> pure_equality_;  // kSelect: predicate is pure equality
  // Children in CSR layout (declaration order preserved), with the charge
  // for shipping each child to its parent when virtual / when stored.
  std::vector<std::uint32_t> child_begin_;
  std::vector<NodeId> child_ids_;
  std::vector<double> edge_virtual_;
  std::vector<double> edge_stored_;

  std::vector<QueryTerm> query_terms_;  // queries ascending

  // Epoch-invalidated produce memo.
  std::uint32_t epoch_ = 0;
  std::vector<double> memo_;
  std::vector<std::uint32_t> memo_epoch_;

  // Incremental session state.
  FastMaterializedSet current_;
  FastMaterializedSet scratch_;
  double total_ = 0;
  std::vector<double> query_term_value_;  // aligned with query_terms_
  std::vector<double> maint_term_value_;  // by NodeId, valid for members
  bool loaded_ = false;

  std::size_t evaluations_ = 0;

  // Local observability tallies — plain members bumped behind `tally_`
  // (counters_enabled() sampled once at construction) and flushed to the
  // registry in the destructor, so the probe hot loop never touches an
  // atomic. Not thread-safe, like the rest of the evaluator.
  bool tally_ = false;
  std::size_t full_evals_ = 0;   // evaluate()/load() walks
  std::size_t delta_probes_ = 0; // eval_toggled() calls
  std::size_t memo_hits_ = 0;    // produce() answered by the epoch memo
  std::size_t memo_walks_ = 0;   // produce() recursions actually taken
  std::size_t terms_reused_ = 0; // probe terms outside every toggle cone
  std::size_t terms_recomputed_ = 0;
};

}  // namespace mvd
