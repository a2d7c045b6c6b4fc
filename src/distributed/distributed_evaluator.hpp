// Communication-aware MVPP cost evaluation.
//
// Every MVPP node is assigned a compute site: base relations sit where the
// topology places them; selections, projections and aggregates run where
// their input lives; a join runs on the side shipping fewer blocks; query
// roots read at their issue site.
//
// View placement: a materialized view is *stored* at the site minimizing
// estimated read shipping plus refresh shipping — chosen among the view's
// compute site and the issue sites of the queries above it, with reads
// approximated as one per query execution (Σ fq over Ov). Storing a view
// at its consumers' site converts per-query shipping into per-update
// shipping, which is exactly the distributed design trade-off of the
// paper's Section 4.1 note.
//
// This class only derives that placement, plus the topology's per-block
// link prices, and hands it to MvppEvaluator as data: the base cost
// function then charges blocks × price on every cross-site edge, read and
// refresh shipment. Every selection algorithm — including the incremental
// fast path and the parallel exact searches — therefore runs against the
// distributed cost model unchanged; that comparison is bench Ext-F.
#pragma once

#include "src/distributed/topology.hpp"
#include "src/mvpp/evaluation.hpp"

namespace mvd {

class DistributedMvppEvaluator : public MvppEvaluator {
 public:
  DistributedMvppEvaluator(const MvppGraph& graph, SiteTopology topology,
                           MaintenancePolicy policy = {});

  /// Compute site chosen for a node.
  const std::string& site_of(NodeId v) const;

  /// Storage site chosen for a node if it were materialized.
  const std::string& storage_site_of(NodeId v) const;

  /// Predicted blocks shipped across sites while producing v's result
  /// over the materialized frontier `m` — the raw transfer volume,
  /// independent of per-link costs (every cross-site edge counts its
  /// child's blocks once). The §4.1 validation test compares this against
  /// the measured exchange-block log of the in-process sharded engine.
  double produce_transfer_blocks(NodeId v, const MaterializedSet& m) const;

  /// Predicted blocks shipped while answering `query`, including shipping
  /// the result (or the stored view) to the query's issue site.
  double answer_transfer_blocks(NodeId query, const MaterializedSet& m) const;

  const SiteTopology& topology() const { return topology_; }

 private:
  SiteTopology topology_;
};

}  // namespace mvd
