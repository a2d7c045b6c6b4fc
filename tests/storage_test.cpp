// Tests for src/storage: values, tables, databases (including the
// copy-on-write sharing of tables between Database copies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/exec/executor.hpp"
#include "src/obs/metrics.hpp"
#include "src/storage/column_table.hpp"
#include "src/storage/database.hpp"
#include "src/storage/table.hpp"
#include "src/storage/value.hpp"
#include "tests/golden_digest.hpp"

namespace mvd {
namespace {

TEST(ValueTest, ConstructorsAndAccessors) {
  EXPECT_EQ(Value::int64(42).as_int64(), 42);
  EXPECT_DOUBLE_EQ(Value::real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::string("hi").as_string(), "hi");
  EXPECT_TRUE(Value::boolean(true).as_bool());
  EXPECT_EQ(Value::date(100).as_int64(), 100);
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value::string("x").as_int64(), ExecError);
  EXPECT_THROW(Value::int64(1).as_string(), ExecError);
  EXPECT_THROW(Value::int64(1).as_bool(), ExecError);
  EXPECT_THROW(Value::string("x").as_double(), ExecError);
}

TEST(ValueTest, NumericCoercionAcrossKinds) {
  EXPECT_DOUBLE_EQ(Value::int64(3).as_double(), 3.0);
  EXPECT_DOUBLE_EQ(Value::date(7).as_double(), 7.0);
  // int 1 and double 1.0 compare equal and hash equal.
  EXPECT_EQ(Value::int64(1), Value::real(1.0));
  EXPECT_EQ(Value::int64(1).hash(), Value::real(1.0).hash());
}

TEST(ValueTest, Comparisons) {
  EXPECT_TRUE(Value::int64(1).compare(Value::int64(2)) < 0);
  EXPECT_TRUE(Value::string("b").compare(Value::string("a")) > 0);
  EXPECT_TRUE(Value::boolean(false).compare(Value::boolean(false)) == 0);
  EXPECT_TRUE(Value::boolean(false).compare(Value::boolean(true)) < 0);
  EXPECT_THROW(Value::string("x").compare(Value::int64(1)), ExecError);
  EXPECT_THROW(Value::boolean(true).compare(Value::int64(1)), ExecError);
}

TEST(ValueTest, EqualityAcrossIncompatibleTypesIsFalseNotThrow) {
  EXPECT_FALSE(Value::string("1") == Value::int64(1));
  EXPECT_FALSE(Value::boolean(true) == Value::int64(1));
}

TEST(ValueTest, DateCivilRoundTrip) {
  for (const auto& [y, m, d] : {std::tuple{1970, 1, 1}, {1996, 7, 1},
                               {2000, 2, 29}, {1969, 12, 31}, {2026, 7, 7}}) {
    const std::int64_t days = Value::days_from_civil(y, m, d);
    int yy = 0, mm = 0, dd = 0;
    Value::civil_from_days(days, yy, mm, dd);
    EXPECT_EQ(yy, y);
    EXPECT_EQ(mm, m);
    EXPECT_EQ(dd, d);
  }
  EXPECT_EQ(Value::days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(Value::days_from_civil(1970, 1, 2), 1);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::int64(5).to_string(), "5");
  EXPECT_EQ(Value::string("LA").to_string(), "'LA'");
  EXPECT_EQ(Value::boolean(true).to_string(), "true");
  EXPECT_EQ(Value::date_ymd(1996, 7, 1).to_string(), "1996-07-01");
}

Schema two_col_schema() {
  return Schema({{"id", ValueType::kInt64, "T"},
                 {"name", ValueType::kString, "T"}});
}

TEST(TableTest, AppendAndRead) {
  Table t(two_col_schema(), 10.0);
  t.append({Value::int64(1), Value::string("a")});
  t.append({Value::int64(2), Value::string("b")});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.row(1)[1].as_string(), "b");
}

TEST(TableTest, ArityAndTypeChecked) {
  Table t(two_col_schema());
  EXPECT_THROW(t.append({Value::int64(1)}), ExecError);
  EXPECT_THROW(t.append({Value::string("x"), Value::string("y")}), ExecError);
}

TEST(TableTest, DateAndInt64Interchangeable) {
  Table t(Schema({{"d", ValueType::kDate, "T"}}));
  t.append({Value::int64(5)});
  t.append({Value::date(6)});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, BlockAccounting) {
  Table t(two_col_schema(), 10.0);
  EXPECT_DOUBLE_EQ(t.blocks(), 0.0);
  for (int i = 0; i < 11; ++i) t.append({Value::int64(i), Value::string("x")});
  EXPECT_DOUBLE_EQ(t.blocks(), 2.0);  // ceil(11/10)
}

TEST(TableTest, ComputeStatsDistinctAndRange) {
  Table t(two_col_schema(), 10.0);
  for (int i = 0; i < 10; ++i) {
    t.append({Value::int64(i % 3), Value::string(i % 2 ? "odd" : "even")});
  }
  const RelationStats stats = t.compute_stats();
  EXPECT_DOUBLE_EQ(stats.rows, 10.0);
  EXPECT_DOUBLE_EQ(*stats.blocks, 1.0);
  EXPECT_DOUBLE_EQ(*stats.column("id")->distinct, 3.0);
  EXPECT_DOUBLE_EQ(*stats.column("name")->distinct, 2.0);
  EXPECT_DOUBLE_EQ(*stats.column("id")->min_value, 0.0);
  EXPECT_DOUBLE_EQ(*stats.column("id")->max_value, 2.0);
  EXPECT_FALSE(stats.column("name")->min_value.has_value());
}

TEST(TableTest, PreviewTruncates) {
  Table t(two_col_schema());
  for (int i = 0; i < 5; ++i) t.append({Value::int64(i), Value::string("v")});
  const std::string p = t.preview(2);
  EXPECT_NE(p.find("3 more rows"), std::string::npos);
}

TEST(DatabaseTest, AddLookupDrop) {
  Database db;
  db.add_table("T", Table(two_col_schema()));
  EXPECT_TRUE(db.has_table("T"));
  EXPECT_THROW(db.add_table("T", Table(two_col_schema())), ExecError);
  db.put_table("T", Table(two_col_schema()));  // replace OK
  EXPECT_EQ(db.table("T").row_count(), 0u);
  EXPECT_THROW(db.table("missing"), ExecError);
  EXPECT_EQ(db.table_names(), std::vector<std::string>{"T"});
  db.drop_table("T");
  EXPECT_FALSE(db.has_table("T"));
  EXPECT_THROW(db.drop_table("T"), ExecError);
}

// ---- Copy-on-write: copies share tables, writes clone only their entry ----

Table numbered(std::int64_t first, std::int64_t count) {
  Table t(two_col_schema(), 10.0);
  for (std::int64_t i = first; i < first + count; ++i) {
    t.append({Value::int64(i), Value::string(str_cat("r", i))});
  }
  return t;
}

Database three_tables() {
  Database db;
  db.add_table("T", numbered(0, 20));
  db.add_table("U", numbered(0, 5));
  db.add_table("V", numbered(0, 3));
  return db;
}

std::vector<Tuple> rows_of(const Table& t) {
  return {t.rows().begin(), t.rows().end()};
}

std::map<std::string, const Table*> addresses(const Database& db) {
  std::map<std::string, const Table*> out;
  for (const std::string& n : db.table_names()) out[n] = &db.table(n);
  return out;
}

DeltaTable inserts(std::int64_t first, std::int64_t count) {
  DeltaTable d(two_col_schema(), 10.0);
  const Table rows = numbered(first, count);
  for (const Tuple& t : rows.rows()) d.add_insert(t);
  return d;
}

TEST(DatabaseTest, CopySharesEveryTable) {
  const Database a = three_tables();
  const Database b = a;
  for (const std::string& n : a.table_names()) {
    EXPECT_EQ(&b.table(n), &a.table(n)) << n;
  }
}

// Every write path, on either side of a copy, changes that side only, and
// on that side only the address of the entry it writes.
TEST(DatabaseTest, EachWriteClonesOnlyItsOwnEntry) {
  // T's ids 0..19 are not in bucket order, so partition re-sorts it.
  std::vector<std::size_t> buckets;
  for (std::int64_t i = 0; i < 20; ++i) {
    buckets.push_back(Database::bucket_of(Value::int64(i)));
  }
  ASSERT_FALSE(std::is_sorted(buckets.begin(), buckets.end()));

  struct Write {
    std::string name;
    std::string entry;  // the entry the write changes
    std::function<void(Database&)> apply;
  };
  DeltaTable delta = inserts(100, 1);
  delta.add_delete({Value::int64(0), Value::string("r0")});
  const std::vector<Write> writes = {
      {"add_table", "W",
       [](Database& db) { db.add_table("W", numbered(0, 2)); }},
      {"put_table", "T",
       [](Database& db) { db.put_table("T", numbered(0, 4)); }},
      {"apply_delta", "T", [&](Database& db) { db.apply_delta("T", delta); }},
      {"partition", "T", [](Database& db) { db.partition("T", "id"); }},
      {"drop_table", "T", [](Database& db) { db.drop_table("T"); }},
  };
  for (const Write& w : writes) {
    for (const bool on_copy : {false, true}) {
      SCOPED_TRACE(w.name + (on_copy ? " on the copy" : " on the source"));
      Database a = three_tables();
      Database b = a;
      const auto before = addresses(a);
      const std::vector<Tuple> t_rows = rows_of(a.table("T"));
      Database& written = on_copy ? b : a;
      const Database& other = on_copy ? a : b;
      w.apply(written);

      EXPECT_EQ(addresses(other), before);
      EXPECT_EQ(rows_of(other.table("T")), t_rows);
      EXPECT_FALSE(other.is_partitioned("T"));
      const auto after = addresses(written);
      EXPECT_NE(after, before);
      for (const auto& [n, p] : before) {
        if (n != w.entry) {
          EXPECT_EQ(after.at(n), p) << n;
        }
      }
      if (after.contains(w.entry) && before.contains(w.entry)) {
        EXPECT_NE(after.at(w.entry), before.at(w.entry));
      }
    }
  }
}

// A table no copy shares is written in place — the path refresh relies on
// to apply a small delta without copying the view.
TEST(DatabaseTest, SoleOwnerWritesInPlace) {
  Database a = three_tables();
  const Table* t = &a.table("T");
  a.apply_delta("T", inserts(100, 1));
  EXPECT_EQ(&a.table("T"), t);
  {
    const Database b = a;
    a.apply_delta("T", inserts(200, 1));
    EXPECT_NE(&a.table("T"), t);
    EXPECT_EQ(&b.table("T"), t);
    EXPECT_EQ(b.table("T").row_count(), 21u);
  }
  // The copy is gone, so the clone is a's alone again.
  const Table* clone = &a.table("T");
  a.apply_delta("T", inserts(300, 1));
  EXPECT_EQ(&a.table("T"), clone);
  a.put_table("T", numbered(0, 3));
  EXPECT_EQ(&a.table("T"), clone);
  EXPECT_EQ(a.table("T").row_count(), 3u);
}

/// Every row object `t` holds.
std::set<const Tuple*> row_objects(const Table& t) {
  std::set<const Tuple*> out;
  for (const Tuple& row : t.rows()) out.insert(&row);
  return out;
}

// Rows are shared between table versions: a write to a table a copy
// still holds clones its row handles, so every row the written version
// keeps is the source's own row object and every insert is the delta's,
// while the source keeps its rows, order and bits. Once the copy is gone
// the next write lands in place.
TEST(DatabaseTest, AWriteToASharedTableSharesEveryRowItKeeps) {
  Database a;
  a.add_table("T", numbered(0, 1000));
  DeltaTable delta = inserts(1000, 10);  // 1% inserts
  for (std::int64_t i = 0; i < 1000; i += 100) {  // 1% deletes
    delta.add_delete({Value::int64(i), Value::string(str_cat("r", i))});
  }
  const Table* clone = nullptr;
  {
    const Database source = a;
    const Table& before = source.table("T");
    const std::uint64_t digest = table_digest(before);
    const std::vector<Tuple> rows = rows_of(before);
    const std::set<const Tuple*> kept = row_objects(before);
    const std::set<const Tuple*> added = row_objects(delta.inserts());
    a.apply_delta("T", delta);

    const Table& after = a.table("T");
    ASSERT_NE(&after, &before);
    ASSERT_EQ(after.row_count(), 1000u);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < after.row_count(); ++i) {
      const bool inserted = after.row(i)[0].as_int64() >= 1000;
      EXPECT_TRUE((inserted ? added : kept).contains(&after.row(i))) << i;
      shared += inserted ? 0 : 1;
    }
    EXPECT_EQ(shared, 990u);
    EXPECT_EQ(table_digest(before), digest);
    EXPECT_EQ(rows_of(before), rows);
    EXPECT_EQ(row_objects(before), kept);
    clone = &after;
  }
  const std::set<const Tuple*> kept = row_objects(a.table("T"));
  a.apply_delta("T", inserts(2000, 5));
  EXPECT_EQ(&a.table("T"), clone);
  std::size_t shared = 0;
  for (const Tuple& row : a.table("T").rows()) shared += kept.count(&row);
  EXPECT_EQ(shared, 1000u);
}

TEST(DatabaseTest, PartitionedEntryWrittenOnACopyRebucketsOnlyTheCopy) {
  Database a;
  a.add_table("T", numbered(0, 20));
  a.partition("T", "id");
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    ranges.push_back(a.bucket_rows("T", b));
  }
  const std::vector<Tuple> rows = rows_of(a.table("T"));

  Database copy = a;
  copy.apply_delta("T", inserts(20, 30));
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    EXPECT_EQ(a.bucket_rows("T", b), ranges[b]) << b;
    const auto [begin, end] = copy.bucket_rows("T", b);
    for (std::size_t r = begin; r < end; ++r) {
      EXPECT_EQ(Database::bucket_of(copy.table("T").row(r)[0]), b) << r;
    }
  }
  EXPECT_EQ(rows_of(a.table("T")), rows);
  EXPECT_EQ(copy.bucket_rows("T", Database::kBuckets - 1).second, 50u);
}

// The vectorized engine scans the columnar form each table keeps: a
// copy's write clones the table (the clone starts without a form), and an
// owner's write in place drops the form, so an executor never serves
// another copy's rows or its own stale ones.
TEST(DatabaseTest, VectorizedExecutorFollowsItsOwnDatabase) {
  Database a = three_tables();
  const Executor exec(a, ExecMode::kVectorized, 1);
  const PlanPtr scan = make_named_scan("T", a.table("T").schema());
  const Table before = exec.run(scan);
  EXPECT_TRUE(same_bag(before, a.table("T")));

  Database b = a;
  b.apply_delta("T", inserts(100, 5));
  EXPECT_TRUE(same_bag(exec.run(scan), before));

  a.apply_delta("T", inserts(200, 2));
  const Table after = exec.run(scan);
  EXPECT_EQ(after.row_count(), 22u);
  EXPECT_TRUE(same_bag(after, a.table("T")));
}

// ---- The columnar form a table keeps ---------------------------------

class ScopedCounters {
 public:
  ScopedCounters() { set_trace_level(TraceLevel::kCounters); }
  ~ScopedCounters() { set_trace_level(std::nullopt); }
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;
};

/// storage/columnar/* counter deltas of one call (counters must be on).
std::map<std::string, double> columnar_counts(const std::function<void()>& fn) {
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  fn();
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().diff(before);
  std::map<std::string, double> out;
  for (const char* n : {"columns_converted", "cells_converted", "scans",
                        "warm_scans"}) {
    out[n] = d.value_of(str_cat("storage/columnar/", n)).value_or(0);
  }
  return out;
}

/// Fill every column of `t`'s form; returns how many were not filled yet.
double fill_all(const Table& t) {
  return columnar_counts([&] { (void)t.columnar(ColumnSet::all()); })
      .at("columns_converted");
}

TEST(TableTest, EveryMutatorDropsTheColumnarForm) {
  const ScopedCounters counters;
  struct Mutator {
    std::string name;
    std::function<void(Table&)> apply;
  };
  const Table other = numbered(50, 3);
  const std::vector<Mutator> mutators = {
      {"append",
       [](Table& t) { t.append({Value::int64(99), Value::string("x")}); }},
      {"update_row",
       [](Table& t) {
         t.update_row(2, {Value::int64(98), Value::string("y")});
       }},
      {"remove_row", [](Table& t) { t.remove_row(0); }},
      {"permute",
       [](Table& t) {
         std::vector<std::size_t> order(t.row_count());
         for (std::size_t i = 0; i < order.size(); ++i) {
           order[i] = order.size() - 1 - i;
         }
         t.permute(order);
       }},
      {"copy assignment", [&](Table& t) { t = other; }},
      {"move assignment", [&](Table& t) { t = Table(other); }},
  };
  for (const Mutator& m : mutators) {
    SCOPED_TRACE(m.name);
    Table t = numbered(0, 10);
    ASSERT_EQ(fill_all(t), 2);
    ASSERT_EQ(fill_all(t), 0);
    m.apply(t);
    EXPECT_EQ(fill_all(t), 2);
    // Refilled, the form holds the new rows.
    const ColumnTable back = *t.columnar(ColumnSet::all());
    ASSERT_EQ(back.row_count(), t.row_count());
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      EXPECT_EQ(back.i64(0)[r], t.row(r)[0].as_int64()) << r;
      EXPECT_EQ(back.str(1)[r], t.row(r)[1].as_string()) << r;
    }
  }
  // Copies and moves start without a form; the source keeps its own.
  Table t = numbered(0, 10);
  fill_all(t);
  const Table copy = t;
  EXPECT_EQ(fill_all(t), 0);
  EXPECT_EQ(fill_all(copy), 2);
  Table moved = std::move(t);
  EXPECT_EQ(fill_all(moved), 2);
  // keep_hashes changes no row, so the form stays.
  moved.keep_hashes();
  EXPECT_EQ(fill_all(moved), 0);
}

// The Database writes that land on a table in place (no copy shares it)
// drop its form too: put_table, apply_delta and partition's re-sort.
TEST(DatabaseTest, InPlaceWritesDropTheColumnarForm) {
  const ScopedCounters counters;
  const std::vector<std::pair<std::string, std::function<void(Database&)>>>
      writes = {
          {"put_table",
           [](Database& db) { db.put_table("T", numbered(0, 4)); }},
          {"apply_delta",
           [](Database& db) { db.apply_delta("T", inserts(100, 2)); }},
          {"partition", [](Database& db) { db.partition("T", "id"); }},
      };
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    Database db = three_tables();
    const Table* t = &db.table("T");
    ASSERT_EQ(fill_all(*t), 2);
    ASSERT_EQ(fill_all(db.table("U")), 2);
    write(db);
    ASSERT_EQ(&db.table("T"), t);  // written in place
    EXPECT_EQ(fill_all(*t), 2);
    EXPECT_EQ(fill_all(db.table("U")), 0);
  }
}

// A copy-on-write clone written after a scan leaves the original's filled
// columns in place: the original's next scan converts nothing and reads
// the original rows, and the clone starts without a form.
TEST(DatabaseTest, CloneWrittenAfterAScanKeepsTheOriginalsForm) {
  const ScopedCounters counters;
  Database a = three_tables();
  const PlanPtr scan = make_named_scan("T", a.table("T").schema());
  const Table before = Executor(a, ExecMode::kVectorized, 1).run(scan);

  Database b = a;
  b.apply_delta("T", inserts(100, 5));
  ASSERT_NE(&b.table("T"), &a.table("T"));

  Table again{Schema{}};
  const auto counts = columnar_counts(
      [&] { again = Executor(a, ExecMode::kVectorized, 4).run(scan); });
  EXPECT_EQ(counts.at("columns_converted"), 0);
  EXPECT_EQ(counts.at("warm_scans"), 1);
  EXPECT_EQ(rows_of(again), rows_of(before));
  EXPECT_EQ(fill_all(b.table("T")), 2);
  EXPECT_EQ(Executor(b, ExecMode::kVectorized, 1).run(scan).row_count(), 25u);
}

TEST(DatabaseTest, SecondScanOfAnUnwrittenTableFillsNothing) {
  const ScopedCounters counters;
  const Database db = three_tables();
  const PlanPtr scan = make_named_scan("U", db.table("U").schema());
  const auto cold = columnar_counts(
      [&] { (void)Executor(db, ExecMode::kVectorized, 1).run(scan); });
  EXPECT_EQ(cold.at("scans"), 1);
  EXPECT_EQ(cold.at("warm_scans"), 0);
  EXPECT_EQ(cold.at("columns_converted"), 2);
  EXPECT_EQ(cold.at("cells_converted"), 10);
  // Any executor, and any copy sharing the table, finds it filled.
  const Database copy = db;
  const auto warm = columnar_counts(
      [&] { (void)Executor(copy, ExecMode::kVectorized, 4).run(scan); });
  EXPECT_EQ(warm.at("scans"), 1);
  EXPECT_EQ(warm.at("warm_scans"), 1);
  EXPECT_EQ(warm.at("columns_converted"), 0);
  EXPECT_EQ(warm.at("cells_converted"), 0);
}

TEST(DatabaseTest, ScanFillsOnlyTheColumnsItsPlanReads) {
  const ScopedCounters counters;
  const Schema wide({{"k", ValueType::kInt64, "W"},
                     {"g", ValueType::kString, "W"},
                     {"x", ValueType::kDouble, "W"},
                     {"y", ValueType::kInt64, "W"},
                     {"z", ValueType::kBool, "W"}});
  Table w(wide, 10.0);
  for (std::int64_t i = 0; i < 30; ++i) {
    w.append({Value::int64(i), Value::string(str_cat("g", i % 4)),
              Value::real(0.5 * static_cast<double>(i)), Value::int64(i * 7),
              Value::boolean(i % 2 == 0)});
  }
  Database db;
  db.add_table("W", std::move(w));
  const PlanPtr scan = make_named_scan("W", wide);
  // GROUP BY g, SUM(x) WHERE k > 3: reads k, g and x of five columns.
  const PlanPtr grouped = make_aggregate(
      make_select(scan, gt(col("W.k"), lit_i64(3))), {"W.g"},
      {AggSpec{AggFn::kSum, "W.x", ""}});
  const auto first = columnar_counts(
      [&] { (void)Executor(db, ExecMode::kVectorized, 1).run(grouped); });
  EXPECT_EQ(first.at("columns_converted"), 3);
  EXPECT_EQ(first.at("cells_converted"), 90);
  // COUNT(*) reads no column; projecting y reads one more.
  const auto count = columnar_counts([&] {
    (void)Executor(db, ExecMode::kVectorized, 1)
        .run(make_aggregate(scan, {}, {AggSpec{AggFn::kCount, "", ""}}));
  });
  EXPECT_EQ(count.at("columns_converted"), 0);
  EXPECT_EQ(count.at("warm_scans"), 1);
  const auto project = columnar_counts([&] {
    (void)Executor(db, ExecMode::kVectorized, 1)
        .run(make_project(scan, {"W.y", "W.g"}));
  });
  EXPECT_EQ(project.at("columns_converted"), 1);
  EXPECT_EQ(project.at("warm_scans"), 0);
  EXPECT_EQ(fill_all(db.table("W")), 1);  // z alone was never read
}

// ---- Kept row hashes --------------------------------------------------

void expect_hashes_kept(const Table& t) {
  ASSERT_TRUE(t.keeps_hashes());
  ASSERT_EQ(t.row_hashes().size(), t.row_count());
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    EXPECT_EQ(t.row_hashes()[i], tuple_hash(t.row(i))) << "row " << i;
  }
}

DeltaTable with_delete(std::int64_t id) {
  DeltaTable d = inserts(500 + id, 2);
  d.add_delete(numbered(id, 1).row(0));
  return d;
}

TEST(TableTest, KeptHashesFollowEveryRowOperation) {
  Table t = numbered(0, 10);
  EXPECT_FALSE(t.keeps_hashes());
  EXPECT_TRUE(t.row_hashes().empty());
  t.keep_hashes();
  expect_hashes_kept(t);
  t.append({Value::int64(42), Value::string("x")});
  expect_hashes_kept(t);
  t.update_row(3, {Value::int64(43), Value::string("y")});
  expect_hashes_kept(t);
  t.remove_row(0);
  expect_hashes_kept(t);
  t.remove_row(t.row_count() - 1);
  expect_hashes_kept(t);
  std::vector<std::size_t> reversed(t.row_count());
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = reversed.size() - 1 - i;
  }
  t.permute(reversed);
  expect_hashes_kept(t);
  Table copy = t;
  copy.append({Value::int64(44), Value::string("z")});
  expect_hashes_kept(copy);
  expect_hashes_kept(t);
  EXPECT_EQ(copy.row_count(), t.row_count() + 1);
}

// Only a delete-bearing delta starts the hashes, on the writer's own
// (possibly just cloned) table; a clone carries them, and the source a
// clone was taken from is left as it was.
TEST(DatabaseTest, DeletesKeepHashesOnTheWrittenTableOnly) {
  Database a;
  a.add_table("T", numbered(0, 20));
  a.apply_delta("T", inserts(100, 3));
  EXPECT_FALSE(a.table("T").keeps_hashes());

  Database b = a;
  b.apply_delta("T", with_delete(4));
  expect_hashes_kept(b.table("T"));
  EXPECT_FALSE(a.table("T").keeps_hashes());

  Database c = b;  // shares b's hashed table until c writes
  const std::vector<std::uint64_t> b_hashes = b.table("T").row_hashes();
  c.apply_delta("T", with_delete(7));
  expect_hashes_kept(c.table("T"));
  EXPECT_EQ(b.table("T").row_hashes(), b_hashes);
  c.apply_delta("T", inserts(300, 4));
  expect_hashes_kept(c.table("T"));
  c.partition("T", "id");  // re-orders the rows into bucket order
  expect_hashes_kept(c.table("T"));
  c.apply_delta("T", with_delete(9));
  expect_hashes_kept(c.table("T"));
  expect_hashes_kept(b.table("T"));
}

TEST(DeltaTableTest, ApplyMatchesAcrossNumericKindsZerosAndDuplicates) {
  const Schema reals({{"k", ValueType::kDouble, "T"}});
  const Schema ints({{"k", ValueType::kInt64, "T"}});
  Table stored(reals);
  for (const double k : {1.0, 2.0, 1.0, -0.0, 1.0}) {
    stored.append({Value::real(k)});
  }
  DeltaTable delta(ints);
  delta.add_delete({Value::int64(1)});
  delta.add_delete({Value::int64(1)});
  delta.add_delete({Value::int64(0)});
  apply_delta(stored, delta);
  // Each delete takes the first equivalent stored rows: rows 0 and 2 (the
  // first two 1.0s) and row 3 (-0.0); swap-removal moves the last 1.0 up.
  std::vector<double> left;
  for (const Tuple& t : stored.rows()) left.push_back(t[0].as_double());
  EXPECT_EQ(left, (std::vector<double>{1, 2}));
  expect_hashes_kept(stored);

  DeltaTable absent(ints);
  absent.add_delete({Value::int64(5)});
  EXPECT_THROW(apply_delta(stored, absent), ExecError);
  DeltaTable too_many(ints);
  too_many.add_delete({Value::int64(1)});
  too_many.add_delete({Value::int64(1)});
  EXPECT_THROW(apply_delta(stored, too_many), ExecError);
}

// ---- Delta pairing against the string-key reference --------------------

// The pairing compacted() and diff() used before they paired rows by hash:
// every row encoded as a string key (numerics by normalized double bits,
// strings length-prefixed, bools as one byte), balanced in a map. Kept
// here as the reference the key-free pairing must match row for row.
void append_value_key(std::string& key, const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDate:
    case ValueType::kDouble: {
      double d = v.as_double();
      if (d == 0) d = 0;
      char bits[sizeof(double)];
      std::memcpy(bits, &d, sizeof(double));
      key += 'n';
      key.append(bits, sizeof(double));
      return;
    }
    case ValueType::kString: {
      const auto len = static_cast<std::uint32_t>(v.as_string().size());
      char bits[sizeof(len)];
      std::memcpy(bits, &len, sizeof(len));
      key += 's';
      key.append(bits, sizeof(len));
      key += v.as_string();
      return;
    }
    case ValueType::kBool:
      key += 'b';
      key += v.as_bool() ? '\1' : '\0';
      return;
  }
}

std::string tuple_key(const Tuple& t) {
  std::string key;
  for (const Value& v : t) append_value_key(key, v);
  return key;
}

DeltaTable reference_pair(const Table& plus, const Table& minus,
                          const Schema& schema) {
  std::unordered_map<std::string, std::int64_t> remaining;
  for (const Tuple& t : plus.rows()) remaining[tuple_key(t)] += 1;
  for (const Tuple& t : minus.rows()) remaining[tuple_key(t)] -= 1;
  DeltaTable out(schema, plus.blocking_factor());
  for (const Tuple& t : plus.rows()) {
    auto& r = remaining[tuple_key(t)];
    if (r > 0) {
      out.add_insert(t);
      --r;
    }
  }
  for (const Tuple& t : minus.rows()) {
    auto& r = remaining[tuple_key(t)];
    if (r < 0) {
      out.add_delete(t);
      ++r;
    }
  }
  return out;
}

/// Same rows in the same order, each value of the same type and bits.
void expect_identical_rows(const Table& got, const Table& want) {
  ASSERT_EQ(got.row_count(), want.row_count());
  for (std::size_t i = 0; i < got.row_count(); ++i) {
    ASSERT_EQ(got.row(i).size(), want.row(i).size());
    for (std::size_t c = 0; c < got.row(i).size(); ++c) {
      EXPECT_TRUE(got.row(i)[c].identical(want.row(i)[c]))
          << "row " << i << " column " << c << ": "
          << got.row(i)[c].to_string() << " vs " << want.row(i)[c].to_string();
    }
  }
}

/// A random row over small domains, so bags hold duplicates: an integral
/// key stored as int64 or date, a double from {±0.0, 1.0, 2.5, two NaNs}
/// and a short string.
Tuple random_row(Rng& rng) {
  const std::int64_t k = rng.uniform_int(0, 3);
  Value key = rng.uniform_int(0, 1) == 0 ? Value::int64(k) : Value::date(k);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits;
  std::memcpy(&bits, &nan, sizeof(nan));
  bits ^= 1;
  double other_nan;
  std::memcpy(&other_nan, &bits, sizeof(other_nan));
  const double reals[] = {0.0, -0.0, 1.0, 2.5, nan, other_nan};
  return {std::move(key), Value::real(reals[rng.uniform_int(0, 5)]),
          Value::string(rng.uniform_int(0, 1) == 0 ? "a" : "b")};
}

TEST(DeltaTableTest, KeyFreePairingMatchesTheStringKeyReference) {
  const Schema schema({{"k", ValueType::kInt64, "T"},
                       {"x", ValueType::kDouble, "T"},
                       {"s", ValueType::kString, "T"}});
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    Table plus(schema);
    Table minus(schema);
    for (std::int64_t i = rng.uniform_int(0, 40); i > 0; --i) {
      plus.append(random_row(rng));
    }
    for (std::int64_t i = rng.uniform_int(0, 40); i > 0; --i) {
      minus.append(random_row(rng));
    }
    DeltaTable delta(schema);
    for (const Tuple& t : plus.rows()) delta.add_insert(t);
    for (const Tuple& t : minus.rows()) delta.add_delete(t);

    const DeltaTable want = reference_pair(plus, minus, schema);
    for (const DeltaTable& got :
         {delta.compacted(), DeltaTable(delta).compacted()}) {
      expect_identical_rows(got.inserts(), want.inserts());
      expect_identical_rows(got.deletes(), want.deletes());
    }
    const DeltaTable got_diff = DeltaTable::diff(minus, plus);
    expect_identical_rows(got_diff.inserts(), want.inserts());
    expect_identical_rows(got_diff.deletes(), want.deletes());
  }
}

}  // namespace
}  // namespace mvd
