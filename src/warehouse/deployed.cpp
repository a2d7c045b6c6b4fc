#include "src/warehouse/deployed.hpp"

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/mvpp/graph.hpp"

namespace mvd {

std::string to_string(ViewStatus status) {
  switch (status) {
    case ViewStatus::kValid: return "VALID";
    case ViewStatus::kStale: return "STALE";
  }
  MVD_ASSERT(false);
  return {};
}

DeployedViewRegistry::DeployedViewRegistry(const MvppGraph& graph,
                                           const MaterializedSet& m,
                                           const Database& db) {
  for (const NodeId id : m) {
    const MvppNode& node = graph.node(id);
    double blocks = node.blocks;
    if (db.has_table(node.name)) {
      blocks = db.table(node.name).blocks();
    }
    DeployedView view;
    view.def = extract_view_def(node.name, node.expr, blocks);
    views_.push_back(std::move(view));
  }
}

const DeployedView* DeployedViewRegistry::find(const std::string& name) const {
  for (const DeployedView& v : views_) {
    if (v.def.name == name) return &v;
  }
  return nullptr;
}

DeployedView* DeployedViewRegistry::find_mutable(const std::string& name) {
  for (DeployedView& v : views_) {
    if (v.def.name == name) return &v;
  }
  return nullptr;
}

ViewStatus DeployedViewRegistry::status(const std::string& name) const {
  const DeployedView* v = find(name);
  if (v == nullptr) throw ExecError("unknown deployed view '" + name + "'");
  return v->status;
}

void DeployedViewRegistry::set_status(const std::string& name,
                                      ViewStatus status) {
  DeployedView* v = find_mutable(name);
  if (v == nullptr) throw ExecError("unknown deployed view '" + name + "'");
  v->status = status;
}

std::vector<std::string> DeployedViewRegistry::mark_stale(
    const std::string& relation) {
  std::vector<std::string> flagged;
  for (DeployedView& v : views_) {
    if (v.def.relations.count(relation) == 0) continue;
    v.status = ViewStatus::kStale;
    flagged.push_back(v.def.name);
  }
  return flagged;
}

std::vector<std::string> DeployedViewRegistry::pending() const {
  std::vector<std::string> out;
  for (const DeployedView& v : views_) {
    if (v.status != ViewStatus::kValid) out.push_back(v.def.name);
  }
  return out;
}

std::vector<ViewDef> DeployedViewRegistry::matchable() const {
  std::vector<ViewDef> out;
  for (const DeployedView& v : views_) {
    if (v.status == ViewStatus::kValid) out.push_back(v.def);
  }
  return out;
}

}  // namespace mvd
