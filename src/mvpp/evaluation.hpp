// Cost evaluation of an MVPP under a chosen materialized set M
// (Section 4.1 of the paper).
//
//   C_total(M) = Σ_i fq(qi) · C(M -> qi)  +  Σ_j fu-factor(vj) · C(L -> vj)
//
// Query side: answering query q costs a scan of its result when the result
// node is in M; otherwise the cost of producing it, where every virtual
// intermediate is re-derived on the fly and every materialized descendant
// is read at its stored block count.
//
// Maintenance side: each v in M is recomputed from its nearest stored
// frontier (materialized descendants are *reused* — this is the only
// reading of the paper's Table 2 whose rows are mutually consistent, and
// it can be disabled for ablation). The recompute is charged once per
// update batch (max fu over the base relations beneath v) or once per
// individual base update (the literal Σ fu(bj) of the formula), selected
// by MaintenancePolicy::mode.
//
// Data transfer (the paper's §4.1 note on distributed warehouses) is part
// of the same function C, priced from a Placement: blocks × per-block
// price is added after each child's produce term, on a query's read of
// its result, and on a refresh's shipment to the view's storage site.
// Without a placement there is one free site and every such term is an
// exact +0, so the centralized sums are the paper's, bit for bit.
//
// This std::set walk is the reference semantics; FastMvppEvaluator
// (fast_eval.hpp) reproduces it bit-for-bit for the search loops.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/mvpp/closures.hpp"
#include "src/mvpp/graph.hpp"

namespace mvd {

using MaterializedSet = std::set<NodeId>;

struct MaintenancePolicy {
  enum class Mode {
    /// All updates to the base relations beneath a view within one period
    /// are applied with a single recompute: factor = max fu (paper's
    /// worked example; all fu = 1 there).
    kBatchRecompute,
    /// One recompute per base-relation update: factor = Σ fu (the literal
    /// Section 4.1 formula).
    kPerUpdate,
  };
  Mode mode = Mode::kBatchRecompute;

  /// Reuse materialized descendants when recomputing a view. Disable to
  /// charge the full from-base-relations cost Ca(v) instead.
  bool reuse_materialized = true;
};

struct MvppCosts {
  double query_processing = 0;
  double maintenance = 0;
  double total() const { return query_processing + maintenance; }
};

/// Index modeling for stored views — the paper's §3.2 argument that "if an
/// intermediate result is materialized, we can establish a proper index on
/// it afterwards", guaranteeing a performance gain. When enabled, an
/// equality selection reading a stored view fetches only its matching
/// blocks, and a join whose inner side is a stored view runs as an
/// index-nested-loop (outer scan + one probe per outer tuple) when that
/// beats the block nested loop. Base relations stay index-less (they
/// belong to the member databases).
struct IndexPolicy {
  bool enabled = false;
  /// Blocks touched per index probe (root-to-leaf plus the record).
  double probe_cost_blocks = 1.2;
};

/// Where each node runs and where its materialized copy is stored, plus
/// the per-block price of shipping between sites. Sites are dense
/// indices; the default is one site with free transfers.
struct Placement {
  std::size_t site_count = 1;
  /// site_count × site_count per-block prices, indexed [from][to].
  std::vector<double> price{0.0};
  /// Per NodeId: the site computing the node (a query root's: its issue
  /// site).
  std::vector<std::size_t> compute_site;
  /// Per NodeId: the site holding the node's copy when materialized.
  std::vector<std::size_t> storage_site;

  double transfer_price(std::size_t from, std::size_t to) const {
    return price[from * site_count + to];
  }
};

class MvppEvaluator {
 public:
  explicit MvppEvaluator(const MvppGraph& graph, MaintenancePolicy policy = {},
                         IndexPolicy index = {});

  const MvppGraph& graph() const { return *graph_; }
  const MaintenancePolicy& policy() const { return policy_; }
  const IndexPolicy& index_policy() const { return index_; }
  const Placement& placement() const { return placement_; }

  /// Precomputed structural closures of the graph (ancestors/descendants
  /// bitsets, Ov and Iv lists), built once at construction and shared by
  /// the selection algorithms and the fast evaluation path.
  const GraphClosures& closures() const { return *closures_; }

  /// Cost of producing v's result given M, *not* counting v itself as
  /// stored: materialized or base children are read at their block
  /// counts (charged in the consuming op_cost), virtual children are
  /// recursively re-derived, and every child's result is shipped to v's
  /// compute site.
  double produce_cost(NodeId v, const MaterializedSet& m) const;

  /// One node's operator cost given M (index-aware when enabled);
  /// excludes child production.
  double op_contribution(const MvppNode& n, const MaterializedSet& m) const;

  /// blocks(from) × the price of shipping from's result to `to`'s compute
  /// site: out of its stored copy when `stored`, else from where it is
  /// computed.
  double read_charge(NodeId from, NodeId to, bool stored) const;

  /// blocks(v) × the price of shipping a refreshed v from its compute site
  /// to its storage site.
  double store_charge(NodeId v) const;

  /// Cost of answering `query` (a kQuery root): a scan of its result node
  /// when that node is materialized, else produce_cost of it; plus the
  /// read_charge to the query's issue site.
  double answer_cost(NodeId query, const MaterializedSet& m) const;

  /// Σ fq(q) · answer_cost(q).
  double query_processing_cost(const MaterializedSet& m) const;

  /// Update factor of v per the policy mode (max or Σ of fu over the base
  /// relations beneath v).
  double update_factor(NodeId v) const;

  /// Maintenance cost of one view v (assumed in M): update_factor ·
  /// (recompute cost + store_charge). The recompute reuses the frontier
  /// (produce_cost(v, M)) or starts from the base relations
  /// (produce_cost(v, ∅), which is Ca(v) on one site), per the policy.
  double maintenance_cost(NodeId v, const MaterializedSet& m) const;

  /// Σ over v in M.
  double total_maintenance_cost(const MaterializedSet& m) const;

  MvppCosts evaluate(const MaterializedSet& m) const;
  double total_cost(const MaterializedSet& m) const;

  /// The paper's node weight
  ///   w(v) = Σ_{q in Ov} fq(q)·Ca(v)  -  fu-factor(v)·Ca(v).
  double weight(NodeId v) const;

  /// Throws PlanError if m contains ids that are not operation nodes.
  void check_materializable(const MaterializedSet& m) const;

 protected:
  /// Install a multi-site placement (its per-node vectors must cover the
  /// graph). Called by cost models that derive one, such as
  /// DistributedMvppEvaluator, from their constructor.
  void set_placement(Placement placement);

 private:
  const MvppGraph* graph_;
  MaintenancePolicy policy_;
  IndexPolicy index_;
  std::shared_ptr<const GraphClosures> closures_;
  Placement placement_;
};

/// Render a materialized set as "{tmp2, tmp4}" using node names.
std::string to_string(const MvppGraph& graph, const MaterializedSet& m);

}  // namespace mvd
