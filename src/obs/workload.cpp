#include "src/obs/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "src/algebra/query_spec.hpp"
#include "src/common/hash.hpp"
#include "src/common/strings.hpp"
#include "src/optimizer/view_rewrite.hpp"

namespace mvd {

std::string query_fingerprint(const QuerySpec& query) {
  // Canonicalized once at bind time (QuerySpec::bind) so the serve path
  // pays a string copy, not a re-canonicalization.
  return query.fingerprint();
}

std::string fingerprint_id(const std::string& fingerprint) {
  static const char* kHex = "0123456789abcdef";
  std::uint64_t h = fnv1a(fingerprint);
  std::string id = "q";
  for (int shift = 60; shift >= 0; shift -= 4) {
    id += kHex[(h >> shift) & 0xF];
  }
  return id;
}

const std::vector<double>& serve_latency_bounds() {
  static const std::vector<double> bounds = {0.05, 0.1, 0.25, 0.5, 1,  2.5,
                                             5,    10,  25,   50,  100, 500};
  return bounds;
}

double windowed_now(double windowed, std::uint64_t windowed_at,
                    std::uint64_t clock, std::size_t window) {
  if (clock <= windowed_at || window == 0) return windowed;
  const double alpha = 1.0 - 1.0 / static_cast<double>(window);
  return windowed *
         std::pow(alpha, static_cast<double>(clock - windowed_at));
}

namespace {

/// w ← w·α^Δ + 1 at clock `now` (the occurrence itself included).
void bump_window(double& windowed, std::uint64_t& windowed_at,
                 std::uint64_t now, std::size_t window) {
  windowed = windowed_now(windowed, windowed_at, now, window) + 1.0;
  windowed_at = now;
}

}  // namespace

// ---- WorkloadStats ----------------------------------------------------

std::map<std::string, double> WorkloadStats::to_gauges() const {
  std::map<std::string, double> g;
  g["workload/window"] = static_cast<double>(window);
  g["workload/events"] = static_cast<double>(events);
  g["workload/serves"] = static_cast<double>(serves);
  g["workload/ingests"] = static_cast<double>(ingests);
  g["workload/refreshes"] = static_cast<double>(refreshes);
  g["workload/fingerprints"] = static_cast<double>(queries.size());
  for (const auto& [name, fq] : declared_fq) {
    g[str_cat("workload/declared/fq/", name)] = fq;
  }
  for (const auto& [name, fu] : declared_fu) {
    g[str_cat("workload/declared/fu/", name)] = fu;
  }
  for (const auto& [fp, q] : queries) {
    const std::string base = str_cat("workload/query/", fingerprint_id(fp));
    g[base + "/count"] = static_cast<double>(q.count);
    g[base + "/hits"] = static_cast<double>(q.hits);
    g[base + "/misses"] = static_cast<double>(q.misses);
    g[base + "/latency_ms_sum"] = q.latency_ms_sum;
    g[base + "/windowed"] = q.windowed;
    g[base + "/windowed_at"] = static_cast<double>(q.windowed_at);
    g[base + "/first_seq"] = static_cast<double>(q.first_seq);
    g[base + "/last_seq"] = static_cast<double>(q.last_seq);
  }
  for (const auto& [name, v] : views) {
    const std::string base = str_cat("workload/view/", name);
    g[base + "/hits"] = static_cast<double>(v.hits);
    g[base + "/refusals"] = static_cast<double>(v.refusals);
    for (const auto& [code, n] : v.refusal_reasons) {
      g[str_cat(base, "/refusal/", code)] = static_cast<double>(n);
    }
    g[base + "/stale_serves"] = static_cast<double>(v.stale_serves);
    g[base + "/stale_serves_total"] =
        static_cast<double>(v.stale_serves_total);
    g[base + "/pending_delta_rows"] = v.pending_delta_rows;
    g[base + "/refreshes"] = static_cast<double>(v.refreshes);
    g[base + "/stale"] = v.stale_since_seq.has_value() ? 1.0 : 0.0;
    g[base + "/staleness_age"] =
        v.stale_since_seq.has_value()
            ? static_cast<double>(events - *v.stale_since_seq)
            : 0.0;
  }
  for (const auto& [name, r] : relations) {
    const std::string base = str_cat("workload/relation/", name);
    g[base + "/ingests"] = static_cast<double>(r.ingests);
    g[base + "/delta_rows"] = r.delta_rows;
    g[base + "/windowed"] = r.windowed;
    g[base + "/windowed_at"] = static_cast<double>(r.windowed_at);
    g[base + "/last_seq"] = static_cast<double>(r.last_seq);
  }
  g["workload/latency/count"] = static_cast<double>(latency_count);
  g["workload/latency/sum_ms"] = latency_ms_sum;
  for (std::size_t i = 0; i < latency_counts.size(); ++i) {
    g[str_cat("workload/latency/bucket/", i < 10 ? "0" : "",
              std::to_string(i))] = static_cast<double>(latency_counts[i]);
  }
  const DriftReport drift = compute_drift(*this);
  g["workload/drift/fq"] = drift.fq_distance;
  g["workload/drift/fu"] = drift.fu_distance;
  g["workload/drift/unmatched_serves"] = drift.unmatched_serve_share;
  return g;
}

Json WorkloadStats::to_json() const {
  Json doc = Json::object();
  doc.set("window", Json::number(window));
  doc.set("events", Json::number(static_cast<double>(events)));
  doc.set("serves", Json::number(static_cast<double>(serves)));
  doc.set("ingests", Json::number(static_cast<double>(ingests)));
  doc.set("refreshes", Json::number(static_cast<double>(refreshes)));

  Json queries_arr = Json::array();
  for (const auto& [fp, q] : queries) {
    Json one = Json::object();
    one.set("id", Json::string(fingerprint_id(fp)));
    one.set("query", Json::string(q.query));
    one.set("fingerprint", Json::string(fp));
    one.set("count", Json::number(static_cast<double>(q.count)));
    one.set("hits", Json::number(static_cast<double>(q.hits)));
    one.set("misses", Json::number(static_cast<double>(q.misses)));
    one.set("latency_ms_sum", Json::number(q.latency_ms_sum));
    one.set("windowed",
            Json::number(windowed_now(q.windowed, q.windowed_at, serves,
                                      window)));
    one.set("first_seq", Json::number(static_cast<double>(q.first_seq)));
    one.set("last_seq", Json::number(static_cast<double>(q.last_seq)));
    queries_arr.push_back(std::move(one));
  }
  doc.set("queries", std::move(queries_arr));

  Json views_obj = Json::object();
  for (const auto& [name, v] : views) {
    Json one = Json::object();
    one.set("hits", Json::number(static_cast<double>(v.hits)));
    one.set("refusals", Json::number(static_cast<double>(v.refusals)));
    Json reasons = Json::object();
    for (const auto& [code, n] : v.refusal_reasons) {
      reasons.set(code, Json::number(static_cast<double>(n)));
    }
    one.set("refusal_reasons", std::move(reasons));
    one.set("stale_serves", Json::number(static_cast<double>(v.stale_serves)));
    one.set("stale_serves_total",
            Json::number(static_cast<double>(v.stale_serves_total)));
    one.set("pending_delta_rows", Json::number(v.pending_delta_rows));
    one.set("refreshes", Json::number(static_cast<double>(v.refreshes)));
    one.set("stale", Json::boolean(v.stale_since_seq.has_value()));
    one.set("staleness_age",
            Json::number(v.stale_since_seq.has_value()
                             ? static_cast<double>(events - *v.stale_since_seq)
                             : 0.0));
    views_obj.set(name, std::move(one));
  }
  doc.set("views", std::move(views_obj));

  Json rels_obj = Json::object();
  for (const auto& [name, r] : relations) {
    Json one = Json::object();
    one.set("ingests", Json::number(static_cast<double>(r.ingests)));
    one.set("delta_rows", Json::number(r.delta_rows));
    one.set("windowed",
            Json::number(windowed_now(r.windowed, r.windowed_at, ingests,
                                      window)));
    rels_obj.set(name, std::move(one));
  }
  doc.set("relations", std::move(rels_obj));

  Json declared = Json::object();
  Json fq = Json::object();
  for (const auto& [name, f] : declared_fq) fq.set(name, Json::number(f));
  declared.set("fq", std::move(fq));
  Json fu = Json::object();
  for (const auto& [name, f] : declared_fu) fu.set(name, Json::number(f));
  declared.set("fu", std::move(fu));
  doc.set("declared", std::move(declared));

  Json latency = Json::object();
  latency.set("count", Json::number(static_cast<double>(latency_count)));
  latency.set("sum_ms", Json::number(latency_ms_sum));
  Json bounds = Json::array();
  for (double b : serve_latency_bounds()) bounds.push_back(Json::number(b));
  latency.set("bucket_bounds", std::move(bounds));
  Json counts = Json::array();
  for (std::uint64_t c : latency_counts) {
    counts.push_back(Json::number(static_cast<double>(c)));
  }
  latency.set("bucket_counts", std::move(counts));
  doc.set("latency", std::move(latency));
  return doc;
}

// ---- Drift ------------------------------------------------------------

Json DriftReport::to_json() const {
  Json doc = Json::object();
  doc.set("fq_distance", Json::number(fq_distance));
  doc.set("fu_distance", Json::number(fu_distance));
  doc.set("unmatched_serve_share", Json::number(unmatched_serve_share));
  const auto entries_to_json = [](const std::vector<DriftEntry>& entries) {
    Json arr = Json::array();
    for (const DriftEntry& e : entries) {
      Json one = Json::object();
      one.set("name", Json::string(e.name));
      one.set("declared_share", Json::number(e.declared_share));
      one.set("observed_share", Json::number(e.observed_share));
      arr.push_back(std::move(one));
    }
    return arr;
  };
  doc.set("queries", entries_to_json(queries));
  doc.set("relations", entries_to_json(relations));
  return doc;
}

DriftReport compute_drift(const WorkloadStats& stats) {
  DriftReport out;

  // fq: observed serve counts grouped by display name vs the declared
  // query frequencies. Serves whose name matches no declared query form
  // an extra observed-only bucket.
  double declared_total = 0;
  for (const auto& [name, fq] : stats.declared_fq) declared_total += fq;
  std::map<std::string, double> observed_by_name;
  double observed_total = 0;
  for (const auto& [fp, q] : stats.queries) {
    observed_by_name[q.query] += static_cast<double>(q.count);
    observed_total += static_cast<double>(q.count);
  }
  double l1 = 0;
  double matched = 0;
  for (const auto& [name, fq] : stats.declared_fq) {
    DriftEntry e;
    e.name = name;
    e.declared_share = declared_total > 0 ? fq / declared_total : 0;
    const auto it = observed_by_name.find(name);
    const double count = it != observed_by_name.end() ? it->second : 0;
    matched += count;
    e.observed_share = observed_total > 0 ? count / observed_total : 0;
    l1 += std::abs(e.declared_share - e.observed_share);
    out.queries.push_back(std::move(e));
  }
  const double unmatched =
      observed_total > 0 ? (observed_total - matched) / observed_total : 0;
  out.unmatched_serve_share = unmatched;
  out.fq_distance =
      observed_total > 0 && declared_total > 0 ? (l1 + unmatched) / 2 : 0;

  // fu: observed ingest counts per relation vs declared update
  // frequencies. Every ingest names a declared relation, so there is no
  // unmatched bucket unless the catalog was never declared.
  double declared_fu_total = 0;
  for (const auto& [name, fu] : stats.declared_fu) declared_fu_total += fu;
  double ingest_total = 0;
  for (const auto& [name, r] : stats.relations) {
    ingest_total += static_cast<double>(r.ingests);
  }
  double fu_l1 = 0;
  double fu_matched = 0;
  for (const auto& [name, fu] : stats.declared_fu) {
    DriftEntry e;
    e.name = name;
    e.declared_share = declared_fu_total > 0 ? fu / declared_fu_total : 0;
    const auto it = stats.relations.find(name);
    const double count =
        it != stats.relations.end() ? static_cast<double>(it->second.ingests)
                                    : 0;
    fu_matched += count;
    e.observed_share = ingest_total > 0 ? count / ingest_total : 0;
    fu_l1 += std::abs(e.declared_share - e.observed_share);
    out.relations.push_back(std::move(e));
  }
  const double fu_unmatched =
      ingest_total > 0 ? (ingest_total - fu_matched) / ingest_total : 0;
  out.fu_distance = ingest_total > 0 && declared_fu_total > 0
                        ? (fu_l1 + fu_unmatched) / 2
                        : 0;
  return out;
}

// ---- WorkloadObservatory ----------------------------------------------

WorkloadObservatory::WorkloadObservatory(std::size_t window)
    : window_(window == 0 ? kDefaultObsWindow : window) {
  state_.window = window_;
  state_.latency_counts.assign(serve_latency_bounds().size() + 1, 0);
}

void WorkloadObservatory::attach_journal(
    std::shared_ptr<EventJournal> journal) {
  journal_ = std::move(journal);
  JournalEvent open;
  open.kind = EventKind::kOpen;
  open.window = window_;
  record(std::move(open));
}

void WorkloadObservatory::declare_query(const std::string& name, double fq) {
  JournalEvent e;
  e.kind = EventKind::kDeclareQuery;
  e.query = name;
  e.frequency = fq;
  record(std::move(e));
}

void WorkloadObservatory::declare_update(const std::string& relation,
                                         double fu) {
  JournalEvent e;
  e.kind = EventKind::kDeclareUpdate;
  e.relation = relation;
  e.frequency = fu;
  record(std::move(e));
}

std::uint64_t WorkloadObservatory::record(JournalEvent&& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.seq = ++state_.events;
  apply_locked(event);
  const std::uint64_t seq = event.seq;
  // Appending under the state lock pins the journal order to the apply
  // order — the replay contract's total order.
  if (journal_ != nullptr) journal_->append(std::move(event));
  return seq;
}

void WorkloadObservatory::apply_locked(const JournalEvent& e) {
  switch (e.kind) {
    case EventKind::kOpen:
      break;  // the window is constructor state; the event documents it
    case EventKind::kDeclareQuery:
      state_.declared_fq[e.query] = e.frequency;
      break;
    case EventKind::kDeclareUpdate:
      state_.declared_fu[e.relation] = e.frequency;
      break;
    case EventKind::kServe: {
      ++state_.serves;
      QueryObservation& q = state_.queries[e.fingerprint];
      if (q.count == 0) {
        q.query = e.query;
        q.first_seq = e.seq;
      }
      ++q.count;
      if (e.rewritten) {
        ++q.hits;
      } else {
        ++q.misses;
      }
      q.latency_ms_sum += e.latency_ms;
      bump_window(q.windowed, q.windowed_at, state_.serves, window_);
      q.last_seq = e.seq;

      const std::vector<double>& bounds = serve_latency_bounds();
      const auto it =
          std::lower_bound(bounds.begin(), bounds.end(), e.latency_ms);
      ++state_.latency_counts[static_cast<std::size_t>(it - bounds.begin())];
      state_.latency_ms_sum += e.latency_ms;
      ++state_.latency_count;

      if (e.rewritten) {
        ++state_.views[e.view].hits;
      } else {
        if (!e.refusals.shares(tallied_list_)) {
          tallies_.clear();
          for (const ServeRefusal& r : e.refusals) {
            ViewObservation& v = state_.views[r.view];
            tallies_.emplace_back(&v.refusals,
                                  &v.refusal_reasons[refusal_code(r.reason)]);
          }
          tallied_list_ = e.refusals;
        }
        for (const auto& [refusals, reason] : tallies_) {
          ++*refusals;
          ++*reason;
        }
      }
      for (const std::string& name : e.stale_views) {
        ViewObservation& v = state_.views[name];
        ++v.stale_serves;
        ++v.stale_serves_total;
      }
      break;
    }
    case EventKind::kIngest: {
      ++state_.ingests;
      RelationObservation& r = state_.relations[e.relation];
      ++r.ingests;
      r.delta_rows += e.delta_rows;
      bump_window(r.windowed, r.windowed_at, state_.ingests, window_);
      r.last_seq = e.seq;
      for (const std::string& name : e.marked_stale) {
        ViewObservation& v = state_.views[name];
        v.pending_delta_rows += e.delta_rows;
        if (!v.stale_since_seq.has_value()) v.stale_since_seq = e.seq;
      }
      break;
    }
    case EventKind::kRefresh: {
      ++state_.refreshes;
      for (const std::string& name : e.refreshed) {
        ViewObservation& v = state_.views[name];
        ++v.refreshes;
        v.pending_delta_rows = 0;
        v.stale_serves = 0;
        v.stale_since_seq.reset();
      }
      break;
    }
  }
}

WorkloadStats WorkloadObservatory::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::unique_ptr<WorkloadObservatory> replay_journal(
    const std::vector<JournalEvent>& events, std::size_t window) {
  if (window == 0) {
    for (const JournalEvent& e : events) {
      if (e.kind == EventKind::kOpen && e.window != 0) {
        window = static_cast<std::size_t>(e.window);
        break;
      }
    }
  }
  auto obs = std::make_unique<WorkloadObservatory>(
      window == 0 ? kDefaultObsWindow : window);
  for (const JournalEvent& e : events) obs->record(e);
  return obs;
}

}  // namespace mvd
