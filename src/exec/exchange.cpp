#include "src/exec/exchange.hpp"

#include "src/catalog/value_type.hpp"
#include "src/obs/metrics.hpp"
#include "src/storage/delta_table.hpp"
#include "src/storage/table.hpp"

namespace mvd {

namespace {

double approx_tuple_bytes(const Tuple& tuple) {
  double bytes = 0;
  for (const Value& v : tuple) {
    bytes += v.type() == ValueType::kString
                 ? static_cast<double>(v.as_string().size())
                 : 8.0;
  }
  return bytes;
}

double approx_rows_bytes(RowRange rows) {
  double bytes = 0;
  for (const Tuple& t : rows) bytes += approx_tuple_bytes(t);
  return bytes;
}

}  // namespace

void ExchangeCounters::add(const ExchangeCounters& other) {
  shuffle_rows += other.shuffle_rows;
  shuffle_blocks += other.shuffle_blocks;
  broadcast_rows += other.broadcast_rows;
  broadcast_blocks += other.broadcast_blocks;
  broadcast_bytes += other.broadcast_bytes;
  gather_rows += other.gather_rows;
  gather_blocks += other.gather_blocks;
}

double approx_table_bytes(const Table& table) {
  return approx_rows_bytes(table.rows());
}

double approx_delta_bytes(const DeltaTable& delta) {
  return approx_rows_bytes(delta.inserts().rows()) +
         approx_rows_bytes(delta.deletes().rows());
}

void record_shuffle(ExchangeCounters& log, double rows, double blocks) {
  log.shuffle_rows += rows;
  log.shuffle_blocks += blocks;
  if (counters_enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("exec/exchange/shuffle_rows").add(rows);
    reg.counter("exec/exchange/shuffle_blocks").add(blocks);
  }
}

void record_broadcast(ExchangeCounters& log, double rows, double blocks,
                      double bytes, std::size_t shards) {
  const double n = static_cast<double>(shards);
  log.broadcast_rows += rows * n;
  log.broadcast_blocks += blocks * n;
  log.broadcast_bytes += bytes * n;
  if (counters_enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("exec/exchange/broadcast_rows").add(rows * n);
    reg.counter("exec/exchange/broadcast_blocks").add(blocks * n);
    reg.counter("exec/exchange/broadcast_bytes").add(bytes * n);
  }
}

void record_gather(ExchangeCounters& log, double rows, double blocks) {
  log.gather_rows += rows;
  log.gather_blocks += blocks;
  if (counters_enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter("exec/exchange/gather_rows").add(rows);
    reg.counter("exec/exchange/gather_blocks").add(blocks);
  }
}

}  // namespace mvd
