#include "src/maintenance/update_stream.hpp"

#include <cmath>
#include <map>

#include "src/common/error.hpp"

namespace mvd {

std::size_t apply_update_batch(Database& db, const std::string& relation,
                               const UpdateStreamOptions& options, Rng& rng,
                               DeltaSet* delta_out) {
  const Table& old = db.table(relation);
  if (old.row_count() == 0) return 0;

  DeltaTable* delta = nullptr;
  if (delta_out != nullptr) {
    delta = &delta_out->try_emplace(relation, old.schema(),
                                    old.blocking_factor())
                 .first->second;
  }

  const std::size_t n = old.row_count();
  auto count_of = [&](double fraction) {
    return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(n)));
  };
  const std::size_t deletes = std::min(count_of(options.delete_fraction), n - 1);
  const std::size_t modifies = count_of(options.modify_fraction);
  const std::size_t inserts = count_of(options.insert_fraction);

  // Choose rows to delete.
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < deletes; ++i) dead[rng.index(n)] = true;

  // The next version shares every surviving row with the old one.
  Table next(old.schema(), old.blocking_factor());
  next.reserve(n + inserts);
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) {
      next.append_shared(old, i);
    } else if (delta != nullptr) {
      delta->share_delete(old, i);
    }
  }

  // In-place modifications: perturb one numeric column of random rows.
  std::size_t numeric_col = old.schema().size();
  for (std::size_t c = 0; c < old.schema().size(); ++c) {
    if (old.schema().at(c).type == ValueType::kInt64) {
      numeric_col = c;
      break;
    }
  }
  std::size_t touched = deletes;
  if (numeric_col < old.schema().size() && next.row_count() > 0) {
    // A row drawn twice must record delete(original) + insert(final), not a
    // chain through intermediate values — the chained form deletes a tuple
    // the pre-batch table never held, so the recorded delta could not be
    // replayed against a replica of the old state.
    std::map<std::size_t, Tuple> originals;
    for (std::size_t i = 0; i < modifies; ++i) {
      const std::size_t r = rng.index(next.row_count());
      Tuple t = next.row(r);
      if (delta != nullptr) originals.try_emplace(r, t);
      t[numeric_col] =
          Value::int64(t[numeric_col].as_int64() + rng.uniform_int(-5, 5));
      next.update_row(r, std::move(t));
      ++touched;
    }
    for (const auto& [r, original] : originals) {
      delta->add_delete(original);
      delta->share_insert(next, r);
    }
  }

  // Inserts: near-duplicates of random surviving rows.
  for (std::size_t i = 0; i < inserts && next.row_count() > 0; ++i) {
    Tuple t = next.row(rng.index(next.row_count()));
    if (numeric_col < old.schema().size()) {
      t[numeric_col] = Value::int64(t[numeric_col].as_int64() + 1);
    }
    next.append(std::move(t));
    if (delta != nullptr) delta->share_insert(next, next.row_count() - 1);
    ++touched;
  }

  db.put_table(relation, std::move(next));
  return touched;
}

}  // namespace mvd
