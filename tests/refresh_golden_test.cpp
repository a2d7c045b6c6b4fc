// Refresh golden: incremental_refresh rounds on the star, chain, paper and
// aggregate warehouses, on the row engine and the vectorized engine at 1
// and 4 threads. Each round's ExecStats (blocks_read, rows_scanned, batches,
// rows_out, delta_rows), its RefreshReport (path, delta_rows, blocks_read
// and stored_rows per view) and every stored table, row by row with exact
// value types and bits, render to a canonical text whose 64-bit digest is
// pinned below. The digests were recorded from a refresh that executed
// every full side and paired deltas by string keys, so reading stored
// sides in place, keeping row hashes and key-free pairing must leave every
// view, report field and counter exactly as they were. The aggregate
// warehouse's digests were recorded before the grouped apply read its
// static facts from the maintainability analysis, whose ten rounds take
// every grouped-apply branch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/maintenance/refresh.hpp"
#include "tests/golden_digest.hpp"
#include "tests/refresh_workloads.hpp"

namespace mvd {
namespace {

constexpr std::size_t kRounds = 6;

std::string render_round(const ExecStats& stats, const RefreshReport& report,
                         const Database& db) {
  std::string s = "stats blocks_read=" + num(stats.blocks_read) +
                  " rows_scanned=" + num(stats.rows_scanned) +
                  " batches=" + num(stats.batches) + "\n";
  for (const auto& [label, rows] : stats.rows_out) {
    s += "rows_out " + label + "=" + num(rows) + "\n";
  }
  for (const auto& [name, rows] : stats.delta_rows) {
    s += "delta_rows " + name + "=" + num(rows) + "\n";
  }
  for (const ViewRefresh& v : report.views) {
    s += "view " + v.view + " path=" + to_string(v.path) +
         " delta_rows=" + num(v.delta_rows) +
         " blocks_read=" + num(v.blocks_read) +
         " stored_rows=" + num(v.stored_rows) + "\n";
  }
  for (const std::string& name : db.table_names()) {
    s += "table " + name + " " + std::to_string(table_digest(db.table(name))) +
         "\n";
  }
  return s;
}

/// Deploy on `mode` and run `rounds` incremental rounds, two relations
/// per round (as in the differential property tests); one rendering per
/// round.
std::vector<std::string> round_texts(RefreshWorkload w, ExecMode mode,
                                     std::size_t threads, std::uint64_t seed,
                                     const UpdateStreamOptions& updates,
                                     std::size_t rounds) {
  const MvppGraph& g = w.design.graph();
  MaterializedSet& m = w.design.selection.materialized;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  for (NodeId v : m) deploy_view(g, v, m, w.db, mode, threads);

  std::vector<std::string> texts;
  Rng rng(seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    DeltaSet batch;
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string& rel =
          w.update_relations[(round + k) % w.update_relations.size()];
      apply_update_batch(w.db, rel, updates, rng, &batch);
    }
    ExecStats stats;
    const RefreshReport report =
        incremental_refresh(g, m, w.db, batch, &stats, mode, threads);
    texts.push_back(render_round(stats, report, w.db));
  }
  return texts;
}

struct Engine {
  const char* name;
  ExecMode mode;
  std::size_t threads;
};
constexpr Engine kEngines[] = {{"row", ExecMode::kRow, 1},
                               {"vec@1", ExecMode::kVectorized, 1},
                               {"vec@4", ExecMode::kVectorized, 4}};

void expect_golden(RefreshWorkload (*make)(), std::uint64_t seed,
                   const std::vector<std::vector<std::uint64_t>>& golden,
                   const UpdateStreamOptions& updates = mixed_updates(),
                   std::size_t rounds = kRounds) {
  ASSERT_EQ(golden.size(), std::size(kEngines));
  for (std::size_t e = 0; e < std::size(kEngines); ++e) {
    const Engine& engine = kEngines[e];
    const std::vector<std::string> texts = round_texts(
        make(), engine.mode, engine.threads, seed, updates, rounds);
    std::vector<std::uint64_t> got;
    for (const std::string& t : texts) got.push_back(fnv1a(t));
    if (got == golden[e]) continue;
    std::size_t r = 0;
    while (r < golden[e].size() && r < got.size() && got[r] == golden[e][r]) {
      ++r;
    }
    ADD_FAILURE() << engine.name << " digests: {" << hex_list(got) << "}\n"
                  << "first differing round " << r << ":\n"
                  << (r < texts.size() ? texts[r] : std::string());
  }
}

TEST(RefreshGoldenTest, Star) {
  expect_golden(
      make_star_workload, 101,
      {{0xae0025e132a5630eull, 0xa83a10fc68670e07ull, 0xb81b5d3a411f6f3full,
        0x2fb725e94479c3d6ull, 0x8e9cf7b4714eb760ull, 0x21f602f47ac65853ull},
       {0xebbdda97bb6d920aull, 0x417ee7dd4b4a00c5ull, 0x8c18a47bf728d177ull,
        0x285d17ae35b22866ull, 0xac7e12c4144969ceull, 0xe3142688c1f00b97ull},
       {0xebbdda97bb6d920aull, 0x417ee7dd4b4a00c5ull, 0x8c18a47bf728d177ull,
        0x285d17ae35b22866ull, 0xac7e12c4144969ceull, 0xe3142688c1f00b97ull}});
}

TEST(RefreshGoldenTest, Chain) {
  expect_golden(
      make_chain_workload, 103,
      {{0xfcbd6a71526a1760ull, 0xdfed74ac145214fbull, 0xefa18d0f33e0ccf1ull,
        0x0a4b4633d6d62d52ull, 0xdf43ddde494a8711ull, 0xaf802be1dd7f0b37ull},
       {0x6c987624d58461f3ull, 0x2fb869bd4e4a79bdull, 0xe08b18076b7b3287ull,
        0x8f1118b05ef75416ull, 0x99695cb193d9821dull, 0x27dd9e29c92eccf2ull},
       {0x6c987624d58461f3ull, 0x2fb869bd4e4a79bdull, 0xe08b18076b7b3287ull,
        0x8f1118b05ef75416ull, 0x99695cb193d9821dull, 0x27dd9e29c92eccf2ull}});
}

TEST(RefreshGoldenTest, Paper) {
  expect_golden(
      make_paper_workload, 107,
      {{0x06d382fb9f45af35ull, 0xb2e3b4174d734872ull, 0x74c1ef7e123227ebull,
        0x67f8f7c1bda30c17ull, 0xc061c03ff6d30ddaull, 0xef6b467fa182cb94ull},
       {0x1b944a6616898d14ull, 0xb2e3b4174d734872ull, 0xbe212b96a121ddb4ull,
        0xfb2902fe95a87b1cull, 0x4148a5a2a4e32aa4ull, 0xef6b467fa182cb94ull},
       {0x1b944a6616898d14ull, 0xb2e3b4174d734872ull, 0xbe212b96a121ddb4ull,
        0xfb2902fe95a87b1cull, 0x4148a5a2a4e32aa4ull, 0xef6b467fa182cb94ull}});
}

TEST(RefreshGoldenTest, Aggregate) {
  expect_golden(
      make_aggregate_workload, 113,
      {{0xc73ff5f6351026c0ull, 0x99f83141ccc4e543ull, 0x382011f7f2d9b56bull,
        0xe0eafaf2db1d24aeull, 0x9254cc0cad3517d8ull, 0x332ed700aa7b9ebdull,
        0xf7d842e3b0c15f15ull, 0x8851764b8e637c9aull, 0xac8d3a3fdd06e4f5ull,
        0x2bc98fd406e5c385ull},
       {0xe010cb5f55dfa4e4ull, 0x030e20599fd29bdcull, 0x94a0492e51efa6e9ull,
        0x9d2fc431a88ee5aaull, 0x2d8500d11143553bull, 0x2b5362b872acdb7full,
        0xcc520edd0aef2b1full, 0xcd4830471344e43eull, 0x8e6a955833e951cdull,
        0x4fa6b9f6b3fba813ull},
       {0xe010cb5f55dfa4e4ull, 0x030e20599fd29bdcull, 0x94a0492e51efa6e9ull,
        0x9d2fc431a88ee5aaull, 0x2d8500d11143553bull, 0x2b5362b872acdb7full,
        0xcc520edd0aef2b1full, 0xcd4830471344e43eull, 0x8e6a955833e951cdull,
        0x4fa6b9f6b3fba813ull}},
      aggregate_updates(), 10);
}

}  // namespace
}  // namespace mvd
