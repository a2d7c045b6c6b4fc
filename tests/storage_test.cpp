// Tests for src/storage: values, tables, databases (including the
// copy-on-write sharing of tables between Database copies).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/algebra/logical_plan.hpp"
#include "src/common/error.hpp"
#include "src/exec/executor.hpp"
#include "src/storage/database.hpp"
#include "src/storage/table.hpp"
#include "src/storage/value.hpp"

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
    t.append({Value::int64(i), Value::string("r" + std::to_string(i))});
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
    EXPECT_EQ(b.version(n), a.version(n)) << n;
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
      const std::vector<Tuple> t_rows = a.table("T").rows();
      Database& written = on_copy ? b : a;
      const Database& other = on_copy ? a : b;
      w.apply(written);

      EXPECT_EQ(addresses(other), before);
      EXPECT_EQ(other.table("T").rows(), t_rows);
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

TEST(DatabaseTest, PartitionedEntryWrittenOnACopyRebucketsOnlyTheCopy) {
  Database a;
  a.add_table("T", numbered(0, 20));
  a.partition("T", "id");
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    ranges.push_back(a.bucket_rows("T", b));
  }
  const std::vector<Tuple> rows = a.table("T").rows();

  Database copy = a;
  copy.apply_delta("T", inserts(20, 30));
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    EXPECT_EQ(a.bucket_rows("T", b), ranges[b]) << b;
    const auto [begin, end] = copy.bucket_rows("T", b);
    for (std::size_t r = begin; r < end; ++r) {
      EXPECT_EQ(Database::bucket_of(copy.table("T").row(r)[0]), b) << r;
    }
  }
  EXPECT_EQ(a.table("T").rows(), rows);
  EXPECT_EQ(copy.bucket_rows("T", Database::kBuckets - 1).second, 50u);
}

// The vectorized engine caches columnar conversions by (table address,
// version): a copy's write clones (new address), an owner's write bumps
// the version, so an executor never serves another copy's rows or its
// own stale ones.
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

}  // namespace
}  // namespace mvd
