// Tests for src/storage: values, tables, databases.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
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

}  // namespace
}  // namespace mvd
