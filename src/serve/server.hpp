// mvserve — the warehouse's serving front door.
//
// MvServer wraps a deployed design (catalog + MVPP + materialized set +
// data) behind a thread-safe serve() that accepts arbitrary SQL in the
// parser's subset, rewrites it onto the cheapest covering materialized
// view (src/optimizer/view_rewrite) or falls back to the canonical
// base-table plan, and executes on any engine.
//
// Concurrency model — snapshot/epoch, in the ArcadeDB materialized-view
// style:
//   * The server publishes an immutable ServeSnapshot: an epoch number,
//     a shared const Database (base tables + stored views), and the view
//     registry with each view's VALID / STALE / BUILDING status.
//   * Readers pin the current snapshot (one shared_ptr copy under the
//     snapshot mutex) and run entirely against it; the pinning Executor
//     overload keeps the data alive even when the server swaps mid-query.
//   * Writers (ingest / refresh) are serialized by a writer mutex and
//     share one routine: copy the current database, which shares every
//     table (copy-on-write), so only the tables written get cloned; mutate
//     the copy; publish a new snapshot in one swap; journal. A reader
//     therefore sees pre-state or post-state, never a mix.
//   * ingest() applies an update batch to one base relation, captures its
//     signed delta for later incremental refresh, and marks every view
//     over that relation STALE — the matcher skips STALE views, so
//     queries fall back to the (already updated) base tables of the same
//     snapshot.
//   * refresh() = begin_refresh() (publish STALE views as BUILDING) +
//     finish_refresh() (rebuild them on the staging copy — incrementally
//     from the captured deltas or by recompute — then publish them
//     VALID). update_and_refresh() does batch + rebuild with one
//     publish, for writers that must never expose an intermediate state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/executor.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/obs/workload.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/deployed.hpp"
#include "src/warehouse/designer.hpp"

namespace mvd {

/// Rewriting switch from MVD_SERVE_REWRITE: truthy/unset = on, falsy
/// ("0"/"false"/"off") = every query takes the base-table path.
bool default_serve_rewrite();

/// Workload-observatory switch from MVD_SERVE_OBSERVE: truthy/unset =
/// on, falsy = the server records nothing and journals nothing.
bool default_serve_observe();

struct ServeOptions {
  ExecMode mode = default_exec_mode();
  std::size_t threads = default_exec_threads();
  bool rewrite = default_serve_rewrite();
  bool observe = default_serve_observe();
};

/// Which answer path serve() may take. kAuto tries the rewriter first;
/// the forced paths exist for differential tests (run both on one pinned
/// snapshot and compare) and for measuring the rewrite win.
enum class ServePath { kAuto, kViewOnly, kBaseOnly };

/// One immutable published state of the warehouse.
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const Database> db;
  DeployedViewRegistry registry;
};

struct ServeResult {
  Table table{Schema{}};
  /// True when a materialized view answered; view names it.
  bool rewritten = false;
  std::string view;
  /// The matcher's refusal reason on the fallback path (best effort;
  /// the flattened form of `refusals`).
  std::string refusal;
  /// Structured per-view refusal reasons on the fallback path.
  std::vector<ServeRefusal> refusals;
  /// Engine that executed the answer plan ("row" | "vec").
  std::string engine;
  std::uint64_t epoch = 0;
  ExecStats stats;
  /// Wall-clock execution time of the answer plan (parse/match excluded).
  double latency_ms = 0;
};

/// Evidence that one query was answered from one view — what the mvlint
/// serve/rewrite-consistent rule re-derives (implies(query_pred,
/// view_pred) over joint must hold for every record).
struct RewriteRecord {
  std::string query;  // QuerySpec name
  std::string view;
  ExprPtr query_pred;
  ExprPtr view_pred;
  Schema joint;
};

class MvServer {
 public:
  /// `db` holds the base tables; chosen views are deployed into the first
  /// snapshot (reusing stored tables already present in `db`, computing
  /// the missing ones with deploy_view). A partitioned `db` keeps its
  /// layout through every snapshot, ingest and refresh.
  MvServer(Catalog catalog, DesignResult design, const Database& db,
           ServeOptions options = {});

  // ---- Read path (thread-safe, lock-free after the snapshot pin) ----

  /// Parse, bind, rewrite-or-fallback, execute. Throws ParseError /
  /// BindError on bad SQL, ExecError on a forced kViewOnly miss.
  ServeResult serve(const std::string& sql, ServePath path = ServePath::kAuto);
  ServeResult serve(const QuerySpec& query, ServePath path = ServePath::kAuto);

  /// The current snapshot (readers may hold it as long as they like).
  std::shared_ptr<const ServeSnapshot> snapshot() const;

  /// serve() against an explicitly pinned snapshot — the differential
  /// harness runs kViewOnly and kBaseOnly against one snapshot and
  /// compares.
  ServeResult serve_on(const std::shared_ptr<const ServeSnapshot>& snap,
                       const QuerySpec& query,
                       ServePath path = ServePath::kAuto) const;

  // ---- Write path (writers serialize; each publish is atomic) ----

  /// Apply one synthetic update batch to `relation`, capture its delta,
  /// mark dependent views STALE, publish. Returns the new epoch.
  std::uint64_t ingest(const std::string& relation,
                       const UpdateStreamOptions& options, Rng& rng);

  /// Publish every non-VALID view as BUILDING (content unchanged).
  std::uint64_t begin_refresh();

  /// Rebuild every non-VALID view on a staging copy (kIncremental
  /// consumes the captured deltas, kRecompute re-runs refresh plans),
  /// publish them VALID. Returns the new epoch.
  std::uint64_t finish_refresh(RefreshMode mode = default_refresh_mode());

  /// begin + finish (two publishes; queries between them fall back).
  std::uint64_t refresh(RefreshMode mode = default_refresh_mode());

  /// Batch + rebuild with a single publish: readers see the old state or
  /// the fully refreshed one, never the gap. The writer loop of the
  /// concurrency tests.
  std::uint64_t update_and_refresh(const std::string& relation,
                                   const UpdateStreamOptions& options,
                                   Rng& rng,
                                   RefreshMode mode = default_refresh_mode());

  // ---- Introspection ----

  const Catalog& catalog() const { return catalog_; }
  const ServeOptions& options() const { return options_; }
  std::uint64_t epoch() const;
  ViewStatus status(const std::string& view) const;

  /// All rewrite evidence accumulated so far (thread-safe copy).
  std::vector<RewriteRecord> rewrite_log() const;

  /// The workload observatory recording this server's traffic (null when
  /// options.observe is off). Seeded at construction with the declared
  /// fq/fu catalog annotations; its journal has a file sink when
  /// MVD_JOURNAL is set.
  WorkloadObservatory* observatory() const { return observatory_.get(); }

 private:
  struct Batch {  // one update batch for write()
    const std::string& relation;
    const UpdateStreamOptions& options;
    Rng& rng;
  };

  void publish(std::shared_ptr<const ServeSnapshot> next);
  /// ingest, finish_refresh and update_and_refresh: stage a copy of the
  /// current snapshot, apply `batch` if any, rebuild the pending views if
  /// `rebuild` is set, publish once, journal. Returns the new epoch.
  std::uint64_t write(const Batch* batch, std::optional<RefreshMode> rebuild);
  /// Rebuild every pending view of `registry` inside `db` (incremental
  /// from `deltas` when possible, recomputed through deploy_view
  /// otherwise), mark them VALID and return their names.
  std::vector<std::string> rebuild_pending(Database& db,
                                           DeployedViewRegistry& registry,
                                           RefreshMode mode,
                                           const DeltaSet& deltas) const;

  Catalog catalog_;
  DesignResult design_;
  ServeOptions options_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const ServeSnapshot> snapshot_;

  /// Serializes ingest/refresh; pending_deltas_ is guarded by it.
  std::mutex writer_mutex_;
  DeltaSet pending_deltas_;

  mutable std::mutex log_mutex_;
  /// Mutable: serve_on is logically const (it only reads the snapshot)
  /// but records its rewrite evidence.
  mutable std::vector<RewriteRecord> rewrite_log_;

  /// Thread-safe itself; serve_on records through the pointer.
  std::unique_ptr<WorkloadObservatory> observatory_;
};

}  // namespace mvd
