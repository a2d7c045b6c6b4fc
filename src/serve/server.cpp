#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

MvServer::MvServer(Catalog catalog, DesignResult design, const Database& db,
                   ServeOptions options)
    : catalog_(std::move(catalog)),
      design_(std::move(design)),
      options_(options) {
  const MvppGraph& graph = design_.graph();
  const MaterializedSet& m = design_.selection.materialized;

  // Deploy any chosen view the caller has not already stored. NodeId
  // order is topological, so refresh plans read stored descendants.
  Database deployed = db;
  for (const NodeId id : m) {
    if (deployed.has_table(graph.node(id).name)) continue;
    deploy_view(graph, id, m, deployed, options_.mode, options_.threads);
  }

  auto first = std::make_shared<ServeSnapshot>();
  first->epoch = 0;
  first->db = std::make_shared<const Database>(std::move(deployed));
  first->registry = DeployedViewRegistry(graph, m, *first->db);
  snapshot_ = std::move(first);

  if (options_.observe) {
    observatory_ = std::make_unique<WorkloadObservatory>();
    // The journal picks up MVD_JOURNAL as its file sink; the kOpen event
    // plus the declarations below make it replay self-contained.
    observatory_->attach_journal(std::make_shared<EventJournal>());
    for (const NodeId q : graph.query_ids()) {
      const MvppNode& node = graph.node(q);
      observatory_->declare_query(node.name, node.frequency);
    }
    for (const std::string& rel : catalog_.relation_names()) {
      observatory_->declare_update(rel, catalog_.update_frequency(rel));
    }
  }
}

std::shared_ptr<const ServeSnapshot> MvServer::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void MvServer::publish(std::shared_ptr<const ServeSnapshot> next) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(next);
}

ServeResult MvServer::serve(const std::string& sql, ServePath path) {
  return serve(*bind_shared(sql), path);
}

QuerySpec MvServer::bind(const std::string& sql) const {
  return *bind_shared(sql);
}

std::shared_ptr<const QuerySpec> MvServer::bind_shared(
    const std::string& sql) const {
  Lexed lexed;
  ParsedQuery parsed;
  {
    // A hit's one stage; on a miss, lexing and the lookup count as parse.
    TraceSpan span("serve", "shape");
    lexed = lex(sql);
    if (const std::shared_ptr<const BoundShape> entry =
            shapes_.find(lexed.shape)) {
      return std::make_shared<const QuerySpec>(
          entry->instantiate(adhoc_name(), literal_values(lexed.tokens)));
    }
    span.rename("parse");
    parsed = parse_tokens(lexed.tokens);
  }
  QuerySpec query;
  {
    MVD_TRACE_SPAN("serve", "bind");
    query = bind_adhoc(catalog_, std::move(parsed));
  }
  // Substituting by position is exact when the bound literals are the
  // text's, in its order (binding keeps the WHERE tree's shape).
  const std::vector<Value> literals = literal_values(lexed.tokens);
  const std::vector<Value> bound = query.selection_literals();
  if (!std::equal(literals.begin(), literals.end(), bound.begin(), bound.end(),
                  [](const Value& a, const Value& b) {
                    return a.identical(b);
                  })) {
    return std::make_shared<const QuerySpec>(std::move(query));
  }
  auto entry = std::make_shared<const BoundShape>(std::move(query));
  shapes_.store(std::move(lexed.shape), entry);
  return {entry, &entry->anchor()};  // this request's spec is the anchor
}

ServeResult MvServer::serve(const QuerySpec& query, ServePath path) {
  return serve_on(snapshot(), query, path);
}

namespace {

/// The template-cache key: which views are VALID, then the template.
std::string template_key(const ServeSnapshot& snap, const QuerySpec& query) {
  std::string key;
  for (const DeployedView& v : snap.registry.views()) {
    key += v.status == ViewStatus::kValid ? '1' : '0';
  }
  key += '|';
  key += query.template_fingerprint();
  return key;
}

}  // namespace

ServeResult MvServer::serve_on(const std::shared_ptr<const ServeSnapshot>& snap,
                               const QuerySpec& query, ServePath path) const {
  MVD_ASSERT(snap != nullptr && snap->db != nullptr);
  ServeResult out;
  out.epoch = snap->epoch;

  // The forced kViewOnly path overrides the global rewrite switch — it
  // exists to assert coverage, not to measure the default configuration.
  const bool try_rewrite =
      path == ServePath::kViewOnly ||
      (path == ServePath::kAuto && options_.rewrite);

  PlanPtr plan;
  std::string refusals;
  if (try_rewrite) {
    MVD_TRACE_SPAN("serve", "match");
    std::string key = template_key(*snap, query);
    std::shared_ptr<const TemplateEntry> entry =
        templates_.find(key, [&](const TemplateEntry& e) {
          return e.match.admits(query);
        });
    if (entry != nullptr) {
      if (!entry->match.view.empty()) plan = entry->match.plan(query);
    } else {
      auto fresh = std::make_shared<TemplateEntry>();
      std::optional<ViewMatch> best = match_template(
          query, snap->registry.matchable(), catalog_, fresh->match);
      if (best.has_value()) {
        plan = best->plan;
        fresh->record = RewriteRecord{query.name(), best->view,
                                      fresh->match.evidence_pred,
                                      best->view_pred, best->joint};
      } else {
        std::vector<ServeRefusal> refused;
        for (const ViewRefusal& r : fresh->match.refusals) {
          refused.push_back({r.view, r.reason});
        }
        fresh->refusals = RefusalList(std::move(refused));
      }
      entry = fresh;
      // A guard miss (or a concurrent miss on the same template) replaces
      // the entry, which becomes the newest.
      templates_.store(std::move(key), std::move(fresh));
    }
    if (plan != nullptr) {
      out.rewritten = true;
      out.view = entry->match.view;
    } else {
      out.refusals = entry->refusals;
      for (const ServeRefusal& r : out.refusals) {
        if (!refusals.empty()) refusals += "; ";
        refusals += r.view + ": " + r.reason;
      }
    }
  } else if (path == ServePath::kBaseOnly) {
    refusals = "base-only path forced";
  } else {
    refusals = "rewriting disabled";
  }

  if (path == ServePath::kViewOnly && !out.rewritten) {
    throw ExecError("no materialized view covers query '" + query.name() +
                    "'" + (refusals.empty() ? "" : " (" + refusals + ")"));
  }
  if (!out.rewritten) {
    out.refusal = refusals.empty() ? "no deployed views" : refusals;
    plan = canonical_plan(catalog_, query);
  }
  out.engine = exec_mode_name(options_.mode);

  {
    MVD_TRACE_SPAN("serve", "exec");
    // `snap` pins the database for the run; the tables keep the columnar
    // forms their scans fill, for every later serve sharing them.
    const Executor exec(*snap->db, options_.mode, options_.threads);
    const auto t0 = std::chrono::steady_clock::now();
    out.table = exec.run(plan, &out.stats);
    const auto t1 = std::chrono::steady_clock::now();
    out.latency_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  if (observatory_ != nullptr) {
    MVD_TRACE_SPAN("serve", "record");
    JournalEvent e;
    e.kind = EventKind::kServe;
    e.epoch = snap->epoch;
    e.query = query.name();
    e.fingerprint = query_fingerprint(query);
    e.rewritten = out.rewritten;
    e.view = out.view;
    e.engine = out.engine;
    e.latency_ms = out.latency_ms;
    e.refusals = out.refusals;
    if (!out.rewritten) {
      // Stale coverage this fallback could have used: STALE matchable
      // views over exactly the query's relation set.
      const std::set<std::string> query_rels(query.relations().begin(),
                                             query.relations().end());
      for (const DeployedView& v : snap->registry.views()) {
        if (v.status != ViewStatus::kValid && v.def.matchable &&
            v.def.relations == query_rels) {
          e.stale_views.push_back(v.def.name);
        }
      }
    }
    observatory_->record(std::move(e));
  }
  return out;
}

std::uint64_t MvServer::ingest(const std::string& relation,
                               const UpdateStreamOptions& options, Rng& rng) {
  const Batch batch{relation, options, rng};
  return write(&batch, std::nullopt);
}

std::uint64_t MvServer::refresh(RefreshMode mode) {
  return write(nullptr, mode);
}

std::uint64_t MvServer::update_and_refresh(const std::string& relation,
                                           const UpdateStreamOptions& options,
                                           Rng& rng, RefreshMode mode) {
  const Batch batch{relation, options, rng};
  return write(&batch, mode);
}

std::uint64_t MvServer::write(const Batch* batch,
                              std::optional<RefreshMode> rebuild) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  // `cur` stays pinned until the publish, so every table the staging copy
  // shares with it stays shared and is cloned before it is written.
  const std::shared_ptr<const ServeSnapshot> cur = snapshot();
  Database staging = *cur->db;
  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = cur->epoch + 1;
  next->registry = cur->registry;

  std::vector<JournalEvent> events;
  if (batch != nullptr) {
    // A relation with no rows captures no delta entry: zero delta rows.
    const auto captured = [&] {
      const auto it = pending_deltas_.find(batch->relation);
      return it != pending_deltas_.end() ? it->second.row_count() : 0;
    };
    const std::size_t rows0 = captured();
    apply_update_batch(staging, batch->relation, batch->options, batch->rng,
                       &pending_deltas_);
    JournalEvent& e = events.emplace_back();
    e.kind = EventKind::kIngest;
    e.relation = batch->relation;
    e.delta_rows = static_cast<double>(captured() - rows0);
    e.marked_stale = next->registry.mark_stale(batch->relation);
  }
  if (rebuild.has_value()) {
    std::vector<std::string> refreshed =
        rebuild_pending(staging, next->registry, *rebuild,
                        std::exchange(pending_deltas_, DeltaSet{}));
    if (!refreshed.empty()) {
      JournalEvent& e = events.emplace_back();
      e.kind = EventKind::kRefresh;
      e.refreshed = std::move(refreshed);
      e.mode = to_string(*rebuild);
    }
  }
  next->db = std::make_shared<const Database>(std::move(staging));
  publish(next);

  if (observatory_ != nullptr) {
    for (JournalEvent& e : events) {
      e.epoch = next->epoch;
      observatory_->record(std::move(e));
    }
  }
  return next->epoch;
}

std::vector<std::string> MvServer::rebuild_pending(
    Database& db, DeployedViewRegistry& registry, RefreshMode mode,
    const DeltaSet& deltas) const {
  const std::vector<std::string> pending = registry.pending();
  if (pending.empty()) return pending;
  const MvppGraph& graph = design_.graph();
  const MaterializedSet& m = design_.selection.materialized;

  if (mode == RefreshMode::kIncremental && !deltas.empty()) {
    // The incremental walk covers every view a delta reaches — exactly
    // the set ingest marked stale for those relations.
    incremental_refresh(graph, m, db, deltas, nullptr, options_.mode,
                        options_.threads);
  } else {
    for (const NodeId id : m) {
      if (std::find(pending.begin(), pending.end(), graph.node(id).name) !=
          pending.end()) {
        deploy_view(graph, id, m, db, options_.mode, options_.threads);
      }
    }
  }
  for (const std::string& name : pending) {
    registry.set_status(name, ViewStatus::kValid);
  }
  return pending;
}

std::uint64_t MvServer::epoch() const { return snapshot()->epoch; }

ViewStatus MvServer::status(const std::string& view) const {
  return snapshot()->registry.status(view);
}

std::vector<RewriteRecord> MvServer::rewrite_log() const {
  std::vector<RewriteRecord> out;
  templates_.for_each([&](const TemplateEntry& e) {
    if (e.record.has_value()) out.push_back(*e.record);
  });
  return out;
}

}  // namespace mvd
