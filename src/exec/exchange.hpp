// Exchange instrumentation for the sharded execution layer.
//
// The three exchange operators move rows between the coordinator and the
// buckets of a partitioned Database (src/storage/database.hpp):
//
//   shuffle    hash-route rows to their owning bucket (fact loads and
//              base-delta rounds)
//   broadcast  replicate rows to every shard (dimension tables and their
//              deltas, deltas of views stored once that feed partitioned
//              views during refresh)
//   gather     collect per-bucket results / partial aggregates onto the
//              coordinator in bucket order (the deterministic final merge),
//              and partitioned views' deltas that feed views stored once
//
// Everything is in-process, so an "exchange" is pointer traffic — but the
// counts are the measured analogue of the §4.1 cost model's cross-site
// block transfers, and the distributed_exec_validation test pins the
// DistributedMvppEvaluator's predictions against them. Counters accumulate
// into a caller-owned ExchangeCounters (always, so ExecStats works with
// tracing off) and mirror into the MetricsRegistry under exec/exchange/*
// when counters are enabled.
#pragma once

#include <cstddef>

namespace mvd {

class Table;
class DeltaTable;

/// Running totals for one sharded database / one sharded run.
struct ExchangeCounters {
  double shuffle_rows = 0;
  double shuffle_blocks = 0;
  double broadcast_rows = 0;    // rows x destination shard count
  double broadcast_blocks = 0;  // blocks x destination shard count
  double broadcast_bytes = 0;   // estimated payload bytes x shard count
  double gather_rows = 0;
  double gather_blocks = 0;

  void add(const ExchangeCounters& other);
  double total_blocks() const {
    return shuffle_blocks + broadcast_blocks + gather_blocks;
  }
};

/// Estimated wire size of a table's rows (fixed 8 bytes per numeric /
/// bool / date value, string length for strings). Used for the
/// broadcast-bytes counter; intentionally simple and deterministic.
double approx_table_bytes(const Table& table);
double approx_delta_bytes(const DeltaTable& delta);

/// Record one exchange into `log` and, when counters_enabled(), into the
/// global registry (exec/exchange/shuffle_rows, ... — see exchange.cpp).
void record_shuffle(ExchangeCounters& log, double rows, double blocks);
void record_broadcast(ExchangeCounters& log, double rows, double blocks,
                      double bytes, std::size_t shards);
void record_gather(ExchangeCounters& log, double rows, double blocks);

}  // namespace mvd
