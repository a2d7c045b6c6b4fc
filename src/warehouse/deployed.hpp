// The deployed-view registry: what mvserve knows about the warehouse's
// materialized set at one point in time.
//
// Each deployed view carries its matching summary (ViewDef, extracted
// from the MVPP node's annotated base-relation plan) plus a serving
// status in the ArcadeDB style:
//   kValid — stored content matches the current base tables; the matcher
//            may answer from it.
//   kStale — a routed update batch touched a base relation beneath it;
//            the matcher skips it (queries fall back to base tables,
//            which are already consistent in the same snapshot) until a
//            refresh publishes it VALID again.
// ArcadeDB also has BUILDING, for a view refreshed in place; a refresh
// here rebuilds on a staging copy that no reader sees, so a view under
// refresh is simply still STALE.
// The registry is a value type: MvServer snapshots copy it alongside the
// Database, so status transitions publish atomically with the data they
// describe.
#pragma once

#include <string>
#include <vector>

#include "src/mvpp/evaluation.hpp"
#include "src/optimizer/view_rewrite.hpp"
#include "src/storage/database.hpp"

namespace mvd {

enum class ViewStatus { kValid, kStale };

std::string to_string(ViewStatus status);

struct DeployedView {
  ViewDef def;
  ViewStatus status = ViewStatus::kValid;
};

class DeployedViewRegistry {
 public:
  DeployedViewRegistry() = default;

  /// Summarize every view of `m` (in NodeId order, so dependencies come
  /// first). Stored blocks come from the deployed table in `db` when
  /// present, the MVPP annotation otherwise.
  DeployedViewRegistry(const MvppGraph& graph, const MaterializedSet& m,
                       const Database& db);

  const std::vector<DeployedView>& views() const { return views_; }
  bool empty() const { return views_.empty(); }

  const DeployedView* find(const std::string& name) const;
  /// Throws ExecError for unknown views.
  ViewStatus status(const std::string& name) const;
  void set_status(const std::string& name, ViewStatus status);

  /// Flag every view with `relation` beneath it; returns the names
  /// flagged (already-stale views are included and stay stale).
  std::vector<std::string> mark_stale(const std::string& relation);

  /// Names of kStale views (the refresh worklist), in dependency
  /// (NodeId) order.
  std::vector<std::string> pending() const;

  /// The matcher's candidate set: defs of kValid views only.
  std::vector<ViewDef> matchable() const;

 private:
  DeployedView* find_mutable(const std::string& name);

  std::vector<DeployedView> views_;
};

}  // namespace mvd
