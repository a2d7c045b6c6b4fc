#include "src/mvpp/graph.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/common/units.hpp"
#include "src/lint/lint.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

std::string to_string(MvppNodeKind kind) {
  switch (kind) {
    case MvppNodeKind::kBase: return "base";
    case MvppNodeKind::kSelect: return "select";
    case MvppNodeKind::kProject: return "project";
    case MvppNodeKind::kJoin: return "join";
    case MvppNodeKind::kAggregate: return "aggregate";
    case MvppNodeKind::kQuery: return "query";
  }
  MVD_ASSERT(false);
  return {};
}

std::string MvppNode::label() const {
  switch (kind) {
    case MvppNodeKind::kBase:
      return name + " (fu=" + format_fixed(frequency, 2) + ")";
    case MvppNodeKind::kSelect:
      return name + ": select[" + predicate->to_string() + "]";
    case MvppNodeKind::kProject:
      return name + ": project[" + join(columns, ", ") + "]";
    case MvppNodeKind::kJoin:
      return name + ": join[" + predicate->to_string() + "]";
    case MvppNodeKind::kAggregate: {
      std::vector<std::string> parts;
      for (const AggSpec& a : aggregates) parts.push_back(a.to_string());
      return name + ": aggregate[" + join(columns, ", ") +
             (columns.empty() ? "" : " | ") + join(parts, ", ") + "]";
    }
    case MvppNodeKind::kQuery:
      return name + " (fq=" + format_fixed(frequency, 2) + ")";
  }
  MVD_ASSERT(false);
  return {};
}

const MvppNode& MvppGraph::node(NodeId id) const {
  MVD_ASSERT_MSG(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                 "node id " << id << " out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId MvppGraph::dedup(const std::string& sig) const {
  auto it = by_signature_.find(sig);
  return it == by_signature_.end() ? -1 : it->second;
}

NodeId MvppGraph::add_node(MvppNode node) {
  node.id = static_cast<NodeId>(nodes_.size());
  for (NodeId c : node.children) {
    MVD_ASSERT_MSG(c >= 0 && static_cast<std::size_t>(c) < nodes_.size(),
                   "child id " << c << " out of range");
    nodes_[static_cast<std::size_t>(c)].parents.push_back(node.id);
  }
  if (!node.sig.empty()) by_signature_[node.sig] = node.id;
  nodes_.push_back(std::move(node));
  annotated_ = false;
  return nodes_.back().id;
}

NodeId MvppGraph::add_base(const std::string& relation, const Schema& schema,
                           double update_frequency) {
  const std::string sig = "scan(" + relation + ")";
  if (NodeId existing = dedup(sig); existing >= 0) return existing;
  MvppNode n;
  n.kind = MvppNodeKind::kBase;
  n.name = relation;
  n.relation = relation;
  n.frequency = update_frequency;
  n.sig = sig;
  const NodeId id = add_node(std::move(n));
  base_schemas_[id] = schema;
  return id;
}

NodeId MvppGraph::add_select(NodeId child, const ExprPtr& predicate) {
  MVD_ASSERT(predicate != nullptr);
  const std::string sig = "select[" + normalize(predicate)->to_string() +
                          "](" + node(child).sig + ")";
  if (NodeId existing = dedup(sig); existing >= 0) return existing;
  MvppNode n;
  n.kind = MvppNodeKind::kSelect;
  n.children = {child};
  n.predicate = predicate;
  n.sig = sig;
  return add_node(std::move(n));
}

NodeId MvppGraph::add_project(NodeId child,
                              const std::vector<std::string>& columns) {
  MVD_ASSERT(!columns.empty());
  std::vector<std::string> sorted = columns;
  std::sort(sorted.begin(), sorted.end());
  const std::string sig =
      "project[" + join(sorted, ",") + "](" + node(child).sig + ")";
  if (NodeId existing = dedup(sig); existing >= 0) return existing;
  MvppNode n;
  n.kind = MvppNodeKind::kProject;
  n.children = {child};
  n.columns = columns;
  n.sig = sig;
  return add_node(std::move(n));
}

NodeId MvppGraph::add_join(NodeId left, NodeId right,
                           const ExprPtr& predicate) {
  MVD_ASSERT(predicate != nullptr);
  std::string l = node(left).sig;
  std::string r = node(right).sig;
  NodeId cl = left;
  NodeId cr = right;
  if (r < l) {
    std::swap(l, r);
    std::swap(cl, cr);
  }
  const std::string sig =
      "join[" + normalize(predicate)->to_string() + "]{" + l + "," + r + "}";
  if (NodeId existing = dedup(sig); existing >= 0) return existing;
  MvppNode n;
  n.kind = MvppNodeKind::kJoin;
  n.children = {cl, cr};
  n.predicate = predicate;
  n.sig = sig;
  return add_node(std::move(n));
}

NodeId MvppGraph::add_aggregate(NodeId child,
                                std::vector<std::string> group_by,
                                std::vector<AggSpec> aggregates) {
  MVD_ASSERT(!aggregates.empty());
  std::vector<std::string> sorted_groups = group_by;
  std::sort(sorted_groups.begin(), sorted_groups.end());
  std::vector<std::string> sorted_aggs;
  for (const AggSpec& a : aggregates) sorted_aggs.push_back(a.to_string());
  std::sort(sorted_aggs.begin(), sorted_aggs.end());
  const std::string sig = "aggregate[" + join(sorted_groups, ",") + "|" +
                          join(sorted_aggs, ",") + "](" + node(child).sig +
                          ")";
  if (NodeId existing = dedup(sig); existing >= 0) return existing;
  MvppNode n;
  n.kind = MvppNodeKind::kAggregate;
  n.children = {child};
  n.columns = std::move(group_by);
  n.aggregates = std::move(aggregates);
  n.sig = sig;
  return add_node(std::move(n));
}

NodeId MvppGraph::add_query(const std::string& name, double frequency,
                            NodeId child) {
  if (find_by_name(name) >= 0) {
    throw PlanError("duplicate query name '" + name + "' in MVPP");
  }
  MvppNode n;
  n.kind = MvppNodeKind::kQuery;
  n.name = name;
  n.frequency = frequency;
  n.children = {child};
  // No signature: query roots are intentionally never merged.
  return add_node(std::move(n));
}

std::vector<NodeId> MvppGraph::base_ids() const {
  std::vector<NodeId> out;
  for (const MvppNode& n : nodes_) {
    if (n.kind == MvppNodeKind::kBase) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> MvppGraph::query_ids() const {
  std::vector<NodeId> out;
  for (const MvppNode& n : nodes_) {
    if (n.kind == MvppNodeKind::kQuery) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> MvppGraph::operation_ids() const {
  std::vector<NodeId> out;
  for (const MvppNode& n : nodes_) {
    if (n.is_operation()) out.push_back(n.id);
  }
  return out;
}

std::set<NodeId> MvppGraph::ancestors(NodeId id) const {
  std::set<NodeId> out;
  std::vector<NodeId> stack(node(id).parents.begin(), node(id).parents.end());
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (!out.insert(v).second) continue;
    const MvppNode& n = node(v);
    stack.insert(stack.end(), n.parents.begin(), n.parents.end());
  }
  return out;
}

std::set<NodeId> MvppGraph::descendants(NodeId id) const {
  std::set<NodeId> out;
  std::vector<NodeId> stack(node(id).children.begin(),
                            node(id).children.end());
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (!out.insert(v).second) continue;
    const MvppNode& n = node(v);
    stack.insert(stack.end(), n.children.begin(), n.children.end());
  }
  return out;
}

std::vector<NodeId> MvppGraph::queries_using(NodeId id) const {
  std::vector<NodeId> out;
  const std::set<NodeId> anc = ancestors(id);
  for (NodeId q : query_ids()) {
    if (anc.contains(q)) out.push_back(q);
  }
  return out;
}

std::vector<NodeId> MvppGraph::bases_under(NodeId id) const {
  std::vector<NodeId> out;
  const std::set<NodeId> desc = descendants(id);
  for (NodeId b : base_ids()) {
    if (desc.contains(b)) out.push_back(b);
  }
  return out;
}

void MvppGraph::set_name(NodeId id, const std::string& name) {
  if (name.empty()) throw PlanError("node name must not be empty");
  if (!node(id).is_operation()) {
    throw PlanError("only operation nodes can be renamed");
  }
  const NodeId existing = find_by_name(name);
  if (existing >= 0 && existing != id) {
    throw PlanError("duplicate node name '" + name + "'");
  }
  nodes_[static_cast<std::size_t>(id)].name = name;
}

void MvppGraph::set_frequency(NodeId id, double frequency) {
  if (node(id).is_operation()) {
    throw PlanError("only query roots and base leaves carry frequencies");
  }
  if (!(frequency >= 0)) throw PlanError("negative frequency");
  nodes_[static_cast<std::size_t>(id)].frequency = frequency;
}

NodeId MvppGraph::find_by_name(const std::string& name) const {
  for (const MvppNode& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return -1;
}

void MvppGraph::annotate(const CostModel& cost_model) {
  // Assign tmpN names to unnamed operation nodes in topological
  // (= insertion) order.
  int next_tmp = 1;
  for (MvppNode& n : nodes_) {
    if (n.is_operation() && n.name.empty()) {
      std::string name;
      do {
        name = "tmp" + std::to_string(next_tmp++);
      } while (find_by_name(name) >= 0);
      n.name = name;
    }
  }

  // Nodes are topological, so each node is estimated once, from its
  // children's stored estimates.
  std::vector<NodeEstimate> estimates(nodes_.size());
  std::size_t estimated = 0;
  for (MvppNode& n : nodes_) {
    const auto child = [&](std::size_t i) -> MvppNode& {
      return nodes_[static_cast<std::size_t>(n.children[i])];
    };
    switch (n.kind) {
      case MvppNodeKind::kBase:
        n.expr = make_scan(cost_model.catalog(), n.relation);
        break;
      case MvppNodeKind::kSelect:
        n.expr = make_select(child(0).expr, n.predicate);
        break;
      case MvppNodeKind::kProject:
        n.expr = make_project(child(0).expr, n.columns);
        break;
      case MvppNodeKind::kJoin:
        n.expr = make_join(child(0).expr, child(1).expr, n.predicate);
        break;
      case MvppNodeKind::kAggregate:
        n.expr = make_aggregate(child(0).expr, n.columns, n.aggregates);
        break;
      case MvppNodeKind::kQuery: {
        // A root is its result node's plan: same estimate, same Ca.
        const MvppNode& result = child(0);
        n.expr = result.expr;
        n.rows = result.rows;
        n.blocks = result.blocks;
        n.op_cost = 0;
        n.full_cost = result.full_cost;
        continue;
      }
    }
    MVD_ASSERT(n.children.size() <= 2);
    const NodeEstimate* inputs[2] = {nullptr, nullptr};
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      inputs[i] = &estimates[static_cast<std::size_t>(n.children[i])];
    }
    const std::span<const NodeEstimate* const> in(inputs, n.children.size());
    NodeEstimate& est = estimates[static_cast<std::size_t>(n.id)];
    est = cost_model.estimate(*n.expr, in);
    ++estimated;
    n.rows = est.rows;
    n.blocks = est.blocks;
    if (n.kind == MvppNodeKind::kBase) {
      n.op_cost = 0;
      n.full_cost = 0;  // leaves: Ca = 0 per the paper's definition
    } else {
      n.op_cost = cost_model.op_cost(*n.expr, in);
      double total = n.op_cost;
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        total += child(i).full_cost;
      }
      n.full_cost = total;
    }
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("cost/node_estimates")
        .add(static_cast<double>(estimated));
  }
  annotated_ = true;
  validate();
  {
    LintContext ctx;
    ctx.graph = this;
    ctx.cost_model = &cost_model;
    lint_stage_hook("annotate", ctx);
  }
}

void MvppGraph::validate() const {
  // The invariants live in the structure-phase mvlint rules (src/lint);
  // this is the throwing wrapper internal callers rely on.
  const LintReport report = lint_structure(*this);
  if (report.has_errors()) {
    throw AssertionError("MVPP structural invariants violated:\n" +
                         report.filtered(Severity::kError).render_text());
  }
}

namespace {

std::string dot_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string MvppGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph mvpp {\n  rankdir=BT;\n";
  for (const MvppNode& n : nodes_) {
    std::string shape = "ellipse";
    if (n.kind == MvppNodeKind::kBase) shape = "box";
    if (n.kind == MvppNodeKind::kQuery) shape = "doublecircle";
    std::string label = n.label();
    if (annotated_ && n.is_operation()) {
      label += "\\nCa=" + format_blocks(n.full_cost) + " blk=" +
               format_blocks(n.blocks);
    }
    os << "  n" << n.id << " [shape=" << shape << ", label=\""
       << dot_escape(label) << "\"];\n";
  }
  for (const MvppNode& n : nodes_) {
    for (NodeId c : n.children) {
      os << "  n" << c << " -> n" << n.id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string MvppGraph::to_text() const {
  std::ostringstream os;
  std::set<NodeId> printed;
  // Recursive printer; nodes already expanded elsewhere are referenced by
  // name only (the DAG is a tree with sharing).
  auto render = [&](auto&& self, NodeId id, int depth) -> void {
    const MvppNode& n = node(id);
    os << std::string(static_cast<std::size_t>(depth) * 2, ' ');
    os << n.label();
    if (annotated_ && n.is_operation()) {
      os << "  [rows=" << format_blocks(n.rows)
         << " blocks=" << format_blocks(n.blocks)
         << " Ca=" << format_blocks(n.full_cost) << "]";
    }
    if (printed.contains(id) && !n.children.empty()) {
      os << "  (shared, see above)\n";
      return;
    }
    os << '\n';
    printed.insert(id);
    for (NodeId c : n.children) self(self, c, depth + 1);
  };
  for (NodeId q : query_ids()) render(render, q, 0);
  return os.str();
}

}  // namespace mvd
