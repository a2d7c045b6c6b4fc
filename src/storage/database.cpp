#include "src/storage/database.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

namespace {

// FNV-1a over the value's packed bytes. Numeric kinds pack as the double
// bit pattern (mirroring the executor's packed group keys, so values that
// compare equal hash equal), strings pack raw, bools as one byte.
std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_value_stable(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDate:
    case ValueType::kDouble: {
      double d = v.as_double();
      if (d == 0.0) d = 0.0;  // fold -0.0 onto +0.0 (they compare equal)
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &d, sizeof(double));
      return fnv1a(bytes, sizeof(double));
    }
    case ValueType::kString: {
      const std::string& s = v.as_string();
      return fnv1a(reinterpret_cast<const unsigned char*>(s.data()), s.size());
    }
    case ValueType::kBool: {
      unsigned char b = v.as_bool() ? 1 : 0;
      return fnv1a(&b, 1);
    }
  }
  throw ExecError("unhashable value type");
}

}  // namespace

std::size_t Database::bucket_of(const Value& key) {
  return static_cast<std::size_t>(hash_value_stable(key) % kBuckets);
}

void Database::add_table(const std::string& name, Table table) {
  if (tables_.contains(name)) {
    throw ExecError("duplicate table '" + name + "'");
  }
  tables_.emplace(name,
                  Entry{std::make_shared<Table>(std::move(table)), {}, {}});
}

void Database::put_table(const std::string& name, Table table) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    add_table(name, std::move(table));
    return;
  }
  Entry& e = it->second;
  if (e.table.use_count() == 1) {
    *e.table = std::move(table);
  } else {
    e.table = std::make_shared<Table>(std::move(table));
  }
  changed(e);
}

bool Database::has_table(const std::string& name) const {
  return tables_.contains(name);
}

const Table& Database::table(const std::string& name) const {
  return *entry(name).table;
}

void Database::apply_delta(const std::string& name, const DeltaTable& delta) {
  Entry& e = entry(name);
  if (delta.empty()) return;
  mvd::apply_delta(writable(e), delta);
  changed(e);
}

void Database::drop_table(const std::string& name) {
  if (tables_.erase(name) == 0) {
    throw ExecError("cannot drop unknown table '" + name + "'");
  }
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [n, _] : tables_) names.push_back(n);
  return names;
}

void Database::set_shards(std::size_t shards) {
  if (shards < 1 || shards > kBuckets) {
    throw ExecError("shard count must be in [1, " + std::to_string(kBuckets) +
                    "]");
  }
  shards_ = shards;
}

std::size_t Database::shard_of_bucket(std::size_t bucket) const {
  return bucket * shards_ / kBuckets;
}

std::pair<std::size_t, std::size_t> Database::bucket_range(
    std::size_t shard) const {
  return {(shard * kBuckets + shards_ - 1) / shards_,
          ((shard + 1) * kBuckets + shards_ - 1) / shards_};
}

void Database::partition(const std::string& name,
                         const std::string& key_column) {
  Entry& e = entry(name);
  (void)e.table->schema().index_of(key_column);  // BindError when absent
  e.key = key_column;
  changed(e);
}

bool Database::is_partitioned(const std::string& name) const {
  const auto it = tables_.find(name);
  return it != tables_.end() && !it->second.key.empty();
}

const std::string* Database::partition_key(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end() || it->second.key.empty()) return nullptr;
  return &it->second.key;
}

std::vector<std::string> Database::partitioned_names() const {
  std::vector<std::string> names;
  for (const auto& [n, e] : tables_) {
    if (!e.key.empty()) names.push_back(n);
  }
  return names;
}

std::pair<std::size_t, std::size_t> Database::bucket_rows(
    const std::string& name, std::size_t bucket) const {
  const Entry& e = entry(name);
  if (e.key.empty()) throw ExecError("'" + name + "' is not partitioned");
  return {e.offsets.at(bucket), e.offsets.at(bucket + 1)};
}

Database::Entry& Database::entry(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw ExecError("unknown table '" + name + "'");
  return it->second;
}

const Database::Entry& Database::entry(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw ExecError("unknown table '" + name + "'");
  return it->second;
}

// Only entries own tables, so use_count() == 1 means no copy shares it.
Table& Database::writable(Entry& e) {
  if (e.table.use_count() != 1) {
    e.table = std::make_shared<Table>(*e.table);
    if (counters_enabled()) {
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.counter("storage/cow/clones").increment();
      reg.counter("storage/cow/rows_cloned")
          .add(static_cast<double>(e.table->row_count()));
    }
  }
  return *e.table;
}

// A partitioned entry is re-ordered into bucket order by a stable counting
// sort (no row moves, and no clone of a shared table, when it already is)
// and its offsets recomputed.
void Database::changed(Entry& e) {
  if (e.key.empty()) return;
  const std::size_t k = e.table->schema().index_of(e.key);
  const std::size_t n = e.table->row_count();
  std::vector<std::uint8_t> bucket(n);
  e.offsets.assign(kBuckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<std::uint8_t>(bucket_of(e.table->row(i)[k]));
    ++e.offsets[bucket[i] + 1];
  }
  for (std::size_t b = 0; b < kBuckets; ++b) e.offsets[b + 1] += e.offsets[b];
  if (std::is_sorted(bucket.begin(), bucket.end())) return;
  std::vector<std::size_t> next(e.offsets.begin(), e.offsets.end() - 1);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[next[bucket[i]]++] = i;
  writable(e).permute(order);
}

}  // namespace mvd
