// A Database is the named collection of base-relation Tables the executor
// runs against (the "member databases" of the paper, already mirrored and
// homogenized). Materialized views live beside base tables under their
// MVPP node names.
//
// Hash partitioning is a layout of an entry, not a second kind of
// database (DESIGN.md §15). A partitioned entry is stored once, its rows
// in bucket order — ascending bucket_of(key), source order within a
// bucket — together with kBuckets + 1 row offsets, so bucket b is the row
// range bucket_rows(name, b). put_table and apply_delta keep every
// partitioned entry in bucket order. The shard count only decides which
// shard owns which (contiguous) bucket range, never where a row lives.
//
// Copying a Database copies the layout and exchange ledger and shares
// every table (copy-on-write): a write clones an entry's table only while
// another copy still holds it, and a sole owner writes in place. Copies
// keep value semantics — snapshots, staging copies and test twins never
// see each other's writes — yet cost nothing per row. After a write to a
// shared entry, a reference from table() still shows the old table. A
// thread may write a copy while others read copies sharing its tables if
// it holds the copy it staged from until done, so those tables stay shared.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/exchange.hpp"
#include "src/storage/delta_table.hpp"
#include "src/storage/table.hpp"

namespace mvd {

class Database {
 public:
  /// Virtual buckets per partitioned table — the unit of partitioning,
  /// per-bucket execution and partial merging, independent of the shard
  /// count.
  static constexpr std::size_t kBuckets = 64;

  /// Owning bucket of a key value: FNV-1a over the value's packed bytes,
  /// stable across platforms and shard counts. Int64/date/double hash by
  /// double bit pattern (with -0.0 folded onto +0.0), so values that
  /// compare equal — int64 5, date 5, double 5.0 — share a bucket.
  static std::size_t bucket_of(const Value& key);

  /// Add a table under `name`; throws ExecError on duplicates.
  void add_table(const std::string& name, Table table);

  /// Replace-or-insert, used when refreshing materialized views. A
  /// partitioned entry keeps its key and is re-ordered into bucket order.
  void put_table(const std::string& name, Table table);

  bool has_table(const std::string& name) const;
  const Table& table(const std::string& name) const;

  /// Apply `delta` to the stored table (bag-subtract the deletes, append
  /// the inserts — see apply_delta in delta_table.hpp), in place unless a
  /// copy still shares it, keeping a partitioned entry in bucket order. An
  /// empty delta changes nothing. Throws ExecError for unknown tables and
  /// deletes of absent rows.
  void apply_delta(const std::string& name, const DeltaTable& delta);

  void drop_table(const std::string& name);

  std::vector<std::string> table_names() const;

  // ---- Partition layout ------------------------------------------------

  /// Shard count in [1, kBuckets] (1 by default); shard s owns the
  /// contiguous bucket range bucket_range(s).
  std::size_t shards() const { return shards_; }
  void set_shards(std::size_t shards);
  /// Owning shard of a bucket: floor(bucket * shards / kBuckets).
  std::size_t shard_of_bucket(std::size_t bucket) const;
  /// Half-open bucket range [begin, end) owned by `shard`.
  std::pair<std::size_t, std::size_t> bucket_range(std::size_t shard) const;

  /// Store `name` hash-partitioned on `key_column` (bare or qualified)
  /// from now on, re-ordering its rows into bucket order. Throws
  /// BindError when the column is absent or ambiguous.
  void partition(const std::string& name, const std::string& key_column);

  bool is_partitioned(const std::string& name) const;
  /// Partition key of a partitioned entry; nullptr otherwise.
  const std::string* partition_key(const std::string& name) const;
  std::vector<std::string> partitioned_names() const;
  /// Half-open row range of bucket `bucket` in partitioned entry `name`.
  std::pair<std::size_t, std::size_t> bucket_rows(const std::string& name,
                                                  std::size_t bucket) const;

  /// Exchange traffic charged against this layout: loads, base-delta
  /// rounds, sharded gathers and refresh transfers (src/exec/exchange).
  ExchangeCounters& exchange_log() { return log_; }
  const ExchangeCounters& exchange_log() const { return log_; }

 private:
  struct Entry {
    std::shared_ptr<Table> table;  // shared with every copy until written
    std::string key;                   // partition key; empty = unpartitioned
    std::vector<std::size_t> offsets;  // kBuckets + 1 when partitioned
  };

  Entry& entry(const std::string& name);
  const Entry& entry(const std::string& name) const;
  /// The entry's table, cloned first when another copy still shares it.
  static Table& writable(Entry& e);
  /// An entry's table changed: restore its layout.
  static void changed(Entry& e);

  std::map<std::string, Entry> tables_;
  std::size_t shards_ = 1;
  ExchangeCounters log_;
};

}  // namespace mvd
