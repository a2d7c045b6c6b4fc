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
//     registry with each view's VALID / STALE status.
//   * Readers pin the current snapshot (one shared_ptr copy under the
//     snapshot mutex) and run entirely against it, so the data stays alive
//     even when the server swaps mid-query. A vectorized scan reads the
//     columnar form its table keeps (src/storage/table.hpp): each column
//     a plan reads converts once per table version and serves every later
//     request, on this snapshot and on every later one sharing the table.
//   * Writers (ingest / refresh / update_and_refresh) are serialized by
//     a writer mutex and share one routine: copy the current database,
//     which shares every table (copy-on-write), so only the tables
//     written get cloned; mutate the copy; publish a new snapshot in one
//     swap; journal. Each write publishes exactly once, so a reader sees
//     pre-state or post-state, never a mix.
//   * ingest() applies an update batch to one base relation, captures its
//     signed delta for later incremental refresh, and marks every view
//     over that relation STALE — the matcher skips STALE views, so
//     queries fall back to the (already updated) base tables of the same
//     snapshot.
//   * refresh() rebuilds every STALE view on the staging copy —
//     incrementally from the captured deltas or by recompute — and
//     publishes them VALID. The rebuild never touches a published table,
//     so the views stay STALE (and skipped) until that one publish.
//     update_and_refresh() does batch + rebuild in one write, for writers
//     that must never expose an intermediate state.
//
// Served traffic is recorded once, by the workload observatory
// (src/obs/workload.hpp), which tallies, journals and replays it; the
// metrics registry holds no copy of it.
//
// Serving by template: served traffic is a few query shapes with changing
// literals, so view matching runs once per (template, set of VALID
// views). The entry holds view_rewrite's TemplateMatch — the decision,
// the compensation skeleton and one literal guard per slot — plus the
// template's one RewriteRecord. A request whose literals lie inside every
// guard builds its plan from its own residual conjuncts and skips the
// matcher; any other request runs best_view_match and replaces the entry.
// View definitions never change, so a refresh that leaves every view
// VALID again finds its entries still keyed, and no publish invalidates
// anything. The cache holds kTemplateCacheCapacity entries and evicts the
// oldest beyond that; a template whose key is longer than
// kMaxCacheKeyBytes is matched on every request, never stored.
//
// Serving SQL text by shape: serve(sql) lexes the text once into tokens
// and a shape — the token sequence with every literal replaced by its
// lexical type (src/sql/lexer.hpp). The shape cache maps a shape to the
// QuerySpec its first request bound to (a BoundShape); a later request of
// that shape takes that spec with its own literals substituted in text
// order, which is field for field the spec parse + bind would return, and
// skips both. A miss parses and binds, and stores the result only when
// its selection literals are the request's literals in text order (the
// proof that substitution by position is exact). Errors are never
// stored: a bad request throws on every serve. The cache holds
// kShapeCacheCapacity entries and evicts the oldest beyond that; a shape
// longer than kMaxCacheKeyBytes is parsed and bound on every
// request, never stored.
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
#include "src/serve/bounded_cache.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/deployed.hpp"
#include "src/warehouse/designer.hpp"

namespace mvd {

struct ServeOptions {
  ExecMode mode = default_exec_mode();
  std::size_t threads = default_exec_threads();
  /// Off: every query takes the base-table path.
  bool rewrite = true;
  /// Off: the server records nothing and journals nothing.
  bool observe = true;
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
  RefusalList refusals;
  /// Engine that executed the answer plan ("row" | "vec").
  std::string engine;
  std::uint64_t epoch = 0;
  ExecStats stats;
  /// Wall-clock execution time of the answer plan (parse/match excluded).
  double latency_ms = 0;
};

/// Evidence that a template was answered from one view — what the mvlint
/// serve/rewrite-consistent rule re-derives (implies(query_pred,
/// view_pred) over joint must hold for every record). query names the
/// request the entry was built from; query_pred is the loosest predicate
/// the entry admits (TemplateMatch::evidence_pred), so the proof covers
/// every request the entry answers.
struct RewriteRecord {
  std::string query;  // QuerySpec name
  std::string view;
  ExprPtr query_pred;
  ExprPtr view_pred;
  Schema joint;
};

class MvServer {
 public:
  /// Template-cache entries kept; inserting beyond evicts the oldest.
  static constexpr std::size_t kTemplateCacheCapacity = 1024;
  /// Shape-cache entries kept; inserting beyond evicts the oldest.
  static constexpr std::size_t kShapeCacheCapacity = 1024;

  /// `db` holds the base tables; chosen views are deployed into the first
  /// snapshot (reusing stored tables already present in `db`, computing
  /// the missing ones with deploy_view). A partitioned `db` keeps its
  /// layout through every snapshot, ingest and refresh.
  MvServer(Catalog catalog, DesignResult design, const Database& db,
           ServeOptions options = {});

  // ---- Read path (thread-safe, lock-free after the snapshot pin) ----

  /// bind(sql), then serve the spec: rewrite-or-fallback, execute.
  /// Throws ParseError / BindError on bad SQL, ExecError on a forced
  /// kViewOnly miss.
  ServeResult serve(const std::string& sql, ServePath path = ServePath::kAuto);
  ServeResult serve(const QuerySpec& query, ServePath path = ServePath::kAuto);

  /// parse_adhoc(catalog(), sql) through the shape cache: equal to it in
  /// every field but the adhoc-<n> name, and throws what it throws.
  QuerySpec bind(const std::string& sql) const;

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

  /// Rebuild every STALE view on a staging copy (kIncremental consumes
  /// the captured deltas, kRecompute re-runs refresh plans), publish them
  /// VALID. Returns the new epoch.
  std::uint64_t refresh(RefreshMode mode = RefreshMode::kRecompute);

  /// Batch + rebuild with a single publish: readers see the old state or
  /// the fully refreshed one, never the gap. The writer loop of the
  /// concurrency tests.
  std::uint64_t update_and_refresh(const std::string& relation,
                                   const UpdateStreamOptions& options,
                                   Rng& rng,
                                   RefreshMode mode = RefreshMode::kRecompute);

  // ---- Introspection ----

  const Catalog& catalog() const { return catalog_; }
  const ServeOptions& options() const { return options_; }
  std::uint64_t epoch() const;
  ViewStatus status(const std::string& view) const;

  /// The rewrite evidence of every live template-cache entry answered
  /// from a view, oldest entry first (thread-safe copy).
  std::vector<RewriteRecord> rewrite_log() const;

  CacheStats template_cache_stats() const { return templates_.stats(); }
  CacheStats shape_cache_stats() const { return shapes_.stats(); }

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

  /// A template's decision; a fallback's refusals are built once, in the
  /// form every serve it answers reports and journals.
  struct TemplateEntry {
    TemplateMatch match;
    RefusalList refusals;
    std::optional<RewriteRecord> record;  // templates answered from a view
  };

  void publish(std::shared_ptr<const ServeSnapshot> next);
  /// bind(), sharing a miss's spec with the shape entry it becomes.
  std::shared_ptr<const QuerySpec> bind_shared(const std::string& sql) const;
  /// ingest, refresh and update_and_refresh: stage a copy of the current
  /// snapshot, apply `batch` if any, rebuild the STALE views if `rebuild`
  /// is set, publish once, journal. Returns the new epoch.
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

  /// The caches are mutable: serve_on and bind are logically const (they
  /// only read the snapshot and the catalog) but fill them.
  mutable BoundedCache<TemplateEntry> templates_{kTemplateCacheCapacity,
                                                 "template_cache"};
  mutable BoundedCache<BoundShape> shapes_{kShapeCacheCapacity,
                                           "shape_cache"};

  /// Thread-safe itself; serve_on records through the pointer.
  std::unique_ptr<WorkloadObservatory> observatory_;
};

}  // namespace mvd
