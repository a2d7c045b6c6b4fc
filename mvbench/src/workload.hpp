// The benchmark's workloads: their warehouses (catalog, declared queries,
// data, serving and refresh configuration) and their request streams.
//
// Every workload runs the same lifecycle, the one the paper prices as
// design + Σ fq·(query cost) + Σ fu·(maintenance cost): fresh set-ups
// (design + deploy), design ops, closed-loop queries and update rounds.
// A workload's main phase is the one it exists to stress and the one
// ops_per_s times; the other phases are short and report the remaining
// end-to-end metrics on the same warehouse.
//
// The warehouse data, the declared query set and the update batches are
// part of a workload's definition and do not depend on the seed (as a TPC
// database is fixed by its scale factor, and its query templates by the
// specification). A batch can move join keys, so over a run the views
// grow or shrink; with the same batches in every run they do so alike.
// The seed draws the literals of every request.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/catalog/catalog.hpp"
#include "src/common/random.hpp"
#include "src/distributed/topology.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/serve/server.hpp"
#include "src/storage/database.hpp"
#include "src/warehouse/designer.hpp"

namespace mvbench {

/// The route a request must take through MvServer.
enum class Route {
  kView,      // answered from a materialized view
  kBase,      // answered by base-table joins
  kDesigned,  // from a view iff the design materialized its query's result
  kAny,       // not checked (literals re-drawn away from the design)
};

/// A query shape: its declared form (registered with the designer; empty
/// for residual shapes of another declared query) and a generator that
/// draws fresh literals.
struct QueryTemplate {
  std::string name;
  double fq = 0;
  std::string declared_sql;
  std::function<std::string(mvd::Rng&)> draw;
  /// Route of a request with fresh literals (declared-literal requests of
  /// a declared template are always checked as kDesigned).
  Route route = Route::kAny;
};

struct DeclaredQuery {
  std::string name;
  double fq = 0;
  std::string sql;
};

/// A workload's generated inputs. Every serving and refresh setting is
/// explicit here: the library's defaults read MVD_* variables.
struct Warehouse {
  mvd::Catalog catalog;
  mvd::DesignerOptions designer;
  std::vector<DeclaredQuery> declared;
  mvd::Database db;
  mvd::ServeOptions serve;
  mvd::RefreshMode refresh = mvd::RefreshMode::kIncremental;
  mvd::UpdateStreamOptions updates;
  /// Updated round-robin, fu = 1 each.
  std::vector<std::string> update_relations;
  /// Sites for the design op's distributed selection.
  mvd::SiteTopology topology{{"s0"}};
  std::vector<QueryTemplate> templates;
  /// Every second request of a template keeps its declared literals
  /// (false: every request draws fresh literals).
  bool alternate_declared = false;
};

enum class MainPhase { kQueries, kMixed, kDesign };

/// One op of a generated stream.
struct Op {
  bool update = false;
  std::string sql;           // queries
  std::size_t tmpl = 0;      // queries: index into Warehouse::templates
  bool declared = false;     // queries: literals equal the declared query's
  std::string relation;      // updates
  std::uint64_t seed = 0;    // updates: seeds the batch's Rng
};

struct Workload {
  std::string name;
  MainPhase main = MainPhase::kQueries;
  /// Main-phase ops per second of --seconds: the main phase runs a fixed
  /// op count, rate * seconds, measured on a 4-core x86-64 host.
  double rate = 0;
  std::size_t setups = 0;      // fresh set-ups; setup_s is their median
  std::size_t design_ops = 0;  // side design phase (main: rate-sized)
  std::size_t queries = 0;     // side query phase (main: rate-sized)
  std::size_t updates = 0;     // side update phase (0 when main is mixed)
  std::size_t clients = 1;     // closed-loop query clients
  std::size_t warmup = 0;      // untimed ops before the timed phases
  std::size_t gate = 0;        // requests checked against kBaseOnly
  Warehouse (*make)(bool smoke) = nullptr;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// `count` ops apportioned to weights by smooth weighted round robin: every
/// prefix holds each kind within one op of its exact share, so two runs
/// (or two halves of one run) have the same mix whatever the seed.
std::vector<std::size_t> apportion(const std::vector<double>& weights,
                                   std::size_t count);

/// `count` query ops over the warehouse's templates, mixed by fq.
std::vector<Op> query_stream(const Warehouse& w, std::size_t count,
                             mvd::Rng& rng);

/// `count` update ops, relations round-robin, their batches drawn from
/// `batches`.
std::vector<Op> update_stream(const Warehouse& w, std::size_t count,
                              mvd::Rng& batches);

/// write_mix's stream: updates (weight Σ fu, batches drawn from `batches`)
/// and queries (weights fq, literals drawn from `literals`) interleaved by
/// apportion().
std::vector<Op> mixed_stream(const Warehouse& w, std::size_t count,
                             mvd::Rng& literals, mvd::Rng& batches);

}  // namespace mvbench
