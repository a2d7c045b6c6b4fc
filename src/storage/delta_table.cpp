#include "src/storage/delta_table.hpp"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {

namespace {

/// Pairs the rows of a `plus` bag against a `minus` bag under
/// tuples_equivalent: per equivalence class, the first (plus − minus)
/// `plus` rows of a class with more plus rows are inserted, the first
/// (minus − plus) `minus` rows of one with more minus rows deleted, each
/// bag in its own order. Classes are found by tuple_hash and verified by
/// value, so no row is encoded.
DeltaTable pair_off(const Table& plus, const Table& minus, Schema schema,
                    double blocking_factor) {
  std::unordered_multimap<std::uint64_t, std::uint32_t> classes;  // by hash
  std::vector<const Tuple*> exemplar;  // class → its first row
  std::vector<std::int64_t> balance;   // class → plus rows − minus rows
  classes.reserve(plus.row_count() + minus.row_count());
  const auto class_of = [&](const Tuple& t) {
    const std::uint64_t h = tuple_hash(t);
    const auto [lo, hi] = classes.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (tuples_equivalent(*exemplar[it->second], t)) return it->second;
    }
    const auto c = static_cast<std::uint32_t>(exemplar.size());
    classes.emplace(h, c);
    exemplar.push_back(&t);
    balance.push_back(0);
    return c;
  };
  std::vector<std::uint32_t> plus_class, minus_class;
  plus_class.reserve(plus.row_count());
  minus_class.reserve(minus.row_count());
  for (const Tuple& t : plus.rows()) {
    plus_class.push_back(class_of(t));
    ++balance[plus_class.back()];
  }
  for (const Tuple& t : minus.rows()) {
    minus_class.push_back(class_of(t));
    --balance[minus_class.back()];
  }
  DeltaTable out(std::move(schema), blocking_factor);
  for (std::size_t i = 0; i < plus.row_count(); ++i) {
    std::int64_t& b = balance[plus_class[i]];
    if (b > 0) {
      out.share_insert(plus, i);
      --b;
    }
  }
  // Deletes are copied through the checks: a diff's `before` may hold
  // other numeric kinds than `after`.
  for (std::size_t i = 0; i < minus.row_count(); ++i) {
    std::int64_t& b = balance[minus_class[i]];
    if (b < 0) {
      out.add_delete(minus.row(i));
      ++b;
    }
  }
  return out;
}

}  // namespace

DeltaTable::DeltaTable(Schema schema, double blocking_factor)
    : inserts_(schema, blocking_factor),
      deletes_(std::move(schema), blocking_factor) {}

DeltaTable DeltaTable::compacted() const& {
  if (inserts_.row_count() == 0 || deletes_.row_count() == 0) return *this;
  return pair_off(inserts_, deletes_, schema(), blocking_factor());
}

DeltaTable DeltaTable::compacted() && {
  if (inserts_.row_count() == 0 || deletes_.row_count() == 0) {
    return std::move(*this);
  }
  return pair_off(inserts_, deletes_, schema(), blocking_factor());
}

DeltaTable DeltaTable::diff(const Table& before, const Table& after) {
  if (before.schema().size() != after.schema().size()) {
    throw ExecError("delta diff over tables of different arity");
  }
  return pair_off(after, before, after.schema(), after.blocking_factor());
}

DeltaTable DeltaTable::rebind(Schema schema, const DeltaTable& src) {
  DeltaTable out(schema, src.blocking_factor());
  out.inserts_ = Table::rebind(schema, src.inserts_);
  out.deletes_ = Table::rebind(std::move(schema), src.deletes_);
  return out;
}

void apply_delta(Table& stored, const DeltaTable& delta) {
  if (delta.empty()) return;
  if (stored.schema().size() != delta.schema().size()) {
    throw ExecError("delta arity does not match the stored table");
  }
  // The inserts join the table shared, so their columns must fit it; a
  // delete only has to match a stored row (numeric kinds may differ).
  const Table& inserts = delta.inserts();
  if (inserts.row_count() > 0) {
    Table::check_rebind(stored.schema(), inserts.schema());
  }
  if (delta.deletes().row_count() == 0) {
    // Insert-only batches append in place without re-reading the table.
    for (std::size_t i = 0; i < inserts.row_count(); ++i) {
      stored.append_shared(inserts, i);
    }
    return;
  }
  // Pending deletes bucketed by hash (exemplar tuple + multiplicity). The
  // stored table keeps its row hashes, so finding the victims is one pass
  // over those hashes behind a bit filter of the pending ones; a hit is
  // verified by value. Each pending delete takes the first equivalent
  // stored rows in order; matched rows are swap-removed in descending
  // order.
  struct Bucket {
    const Tuple* exemplar;
    std::int64_t remaining;
  };
  const std::size_t n_deletes = delta.deletes().row_count();
  std::unordered_map<std::uint64_t, std::vector<Bucket>> pending;
  pending.reserve(n_deletes);
  // At least 8 filter bits per pending delete, a power of two; a hash
  // picks its bit by its top bits after a Fibonacci multiply.
  unsigned filter_log2 = 6;
  while ((std::size_t{1} << filter_log2) < 8 * n_deletes) ++filter_log2;
  std::vector<std::uint64_t> filter((std::size_t{1} << filter_log2) / 64, 0);
  const auto filter_bit = [filter_log2](std::uint64_t h) {
    return (h * 0x9e3779b97f4a7c15ull) >> (64 - filter_log2);
  };
  for (const Tuple& t : delta.deletes().rows()) {
    const std::uint64_t h = tuple_hash(t);
    const std::uint64_t bit = filter_bit(h);
    filter[bit / 64] |= std::uint64_t{1} << (bit % 64);
    std::vector<Bucket>& bucket = pending[h];
    bool found = false;
    for (Bucket& b : bucket) {
      if (tuples_equivalent(*b.exemplar, t)) {
        ++b.remaining;
        found = true;
        break;
      }
    }
    if (!found) bucket.push_back({&t, 1});
  }
  stored.keep_hashes();
  const std::vector<std::uint64_t>& hashes = stored.row_hashes();
  auto unmatched = static_cast<std::int64_t>(n_deletes);
  std::vector<std::size_t> doomed;
  doomed.reserve(n_deletes);
  for (std::size_t idx = 0; idx < hashes.size() && unmatched > 0; ++idx) {
    const std::uint64_t bit = filter_bit(hashes[idx]);
    if ((filter[bit / 64] >> (bit % 64) & 1) == 0) continue;
    const auto it = pending.find(hashes[idx]);
    if (it == pending.end()) continue;
    for (Bucket& b : it->second) {
      if (b.remaining > 0 && tuples_equivalent(*b.exemplar, stored.row(idx))) {
        --b.remaining;
        --unmatched;
        doomed.push_back(idx);
        break;
      }
    }
  }
  if (unmatched != 0) {
    throw ExecError(
        "delta deletes rows absent from the stored table (stale or "
        "clobbered view?)");
  }
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    stored.remove_row(*it);
  }
  for (std::size_t i = 0; i < inserts.row_count(); ++i) {
    stored.append_shared(inserts, i);
  }
}

}  // namespace mvd
