// Tests for src/storage/column_table and the column-batch predicate
// entry point of CompiledExpr.
#include <gtest/gtest.h>

#include <numeric>

#include "src/algebra/eval.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/storage/column_table.hpp"

namespace mvd {
namespace {

Schema mixed_schema() {
  return Schema({{"id", ValueType::kInt64, "T"},
                 {"name", ValueType::kString, "T"},
                 {"score", ValueType::kDouble, "T"},
                 {"ok", ValueType::kBool, "T"},
                 {"day", ValueType::kDate, "T"}});
}

Table mixed_table() {
  Table t(mixed_schema(), 4.0);
  for (int i = 0; i < 10; ++i) {
    t.append({Value::int64(i), Value::string(str_cat("n", i)),
              Value::real(i * 0.5), Value::boolean(i % 2 == 0),
              Value::date(9000 + i)});
  }
  return t;
}

TEST(ColumnTableTest, RoundTripPreservesEverything) {
  const Table t = mixed_table();
  const ColumnTable ct = ColumnTable::from_table(t);
  EXPECT_EQ(ct.row_count(), t.row_count());
  EXPECT_DOUBLE_EQ(ct.blocks(), t.blocks());
  EXPECT_EQ(ct.blocking_factor(), t.blocking_factor());

  const Table back = ct.to_table();
  ASSERT_EQ(back.row_count(), t.row_count());
  EXPECT_TRUE(back.schema() == t.schema());
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    EXPECT_TRUE(back.row(i) == t.row(i)) << "row " << i;
  }
}

TEST(ColumnTableTest, ColumnKindsAndTypedAccess) {
  const ColumnTable ct = ColumnTable::from_table(mixed_table());
  EXPECT_EQ(ct.kind(0), ColumnKind::kInt64Col);
  EXPECT_EQ(ct.kind(1), ColumnKind::kStringCol);
  EXPECT_EQ(ct.kind(2), ColumnKind::kDoubleCol);
  EXPECT_EQ(ct.kind(3), ColumnKind::kBoolCol);
  // Dates are stored as day-count int64s...
  EXPECT_EQ(ct.kind(4), ColumnKind::kInt64Col);
  EXPECT_EQ(ct.i64(4)[3], 9003);
  // ...but value_at re-tags them so row reconstruction is lossless.
  EXPECT_EQ(ct.value_at(3, 4).type(), ValueType::kDate);
  EXPECT_EQ(ct.i64(0)[7], 7);
  EXPECT_EQ(ct.str(1)[2], "n2");
  EXPECT_DOUBLE_EQ(ct.f64(2)[5], 2.5);
  EXPECT_EQ(ct.b8(3)[4], 1);
}

TEST(ColumnTableTest, EmptyTableHasZeroBlocks) {
  const ColumnTable ct(mixed_schema(), 4.0);
  EXPECT_EQ(ct.row_count(), 0u);
  EXPECT_DOUBLE_EQ(ct.blocks(), 0.0);
  EXPECT_EQ(ct.to_table().row_count(), 0u);
}

TEST(ColumnTableTest, AppendRowChecksArityAndKind) {
  ColumnTable ct(Schema({{"a", ValueType::kInt64, ""}}), 10.0);
  EXPECT_THROW(ct.append_row({Value::int64(1), Value::int64(2)}), ExecError);
  EXPECT_THROW(ct.append_row({Value::string("no")}), ExecError);
  ct.append_row({Value::int64(7)});
  EXPECT_EQ(ct.row_count(), 1u);
}

TEST(ColumnTableTest, AppendGatherCopiesSelectedRows) {
  const ColumnTable src = ColumnTable::from_table(mixed_table());
  ColumnTable dst(mixed_schema(), 4.0);
  const std::vector<std::uint32_t> rows = {9, 0, 4};
  for (std::size_t c = 0; c < 5; ++c) {
    dst.append_gather(c, src, c, rows.data(), rows.size());
  }
  dst.set_row_count(rows.size());
  EXPECT_EQ(dst.i64(0)[0], 9);
  EXPECT_EQ(dst.str(1)[1], "n0");
  EXPECT_DOUBLE_EQ(dst.f64(2)[2], 2.0);
}

TEST(ColumnTableTest, UnfilledFormFillsOneColumnAtATime) {
  const Table t = mixed_table();
  ColumnTable form = ColumnTable::unfilled(t);
  EXPECT_EQ(form.row_count(), t.row_count());
  for (std::size_t c = 0; c < 5; ++c) EXPECT_FALSE(form.filled(c)) << c;
  form.fill({2}, t);
  EXPECT_TRUE(form.filled(2));
  EXPECT_FALSE(form.filled(0));
  EXPECT_DOUBLE_EQ(form.f64(2)[5], 2.5);
  EXPECT_EQ(form.kind(0), ColumnKind::kInt64Col);
  EXPECT_THROW((void)form.i64(0), AssertionError);
  EXPECT_THROW((void)form.value_at(0, 1), AssertionError);
  EXPECT_THROW(form.fill({2}, t), AssertionError);
}

TEST(ColumnTableTest, GatherBuildsOnlyTheFilledColumns) {
  const ColumnTable src = ColumnTable::from_table(mixed_table());
  ColumnSet keep;
  keep.add(1);
  keep.add(4);
  ColumnTable dst(mixed_schema(), 4.0, keep);
  const std::vector<std::uint32_t> rows = {9, 0, 4};
  for (const std::size_t c : {1, 4}) {
    dst.append_gather(c, src, c, rows.data(), rows.size());
  }
  dst.set_row_count(rows.size());
  EXPECT_FALSE(dst.filled(0));
  EXPECT_TRUE(dst.filled(1));
  EXPECT_EQ(dst.str(1)[2], "n4");
  EXPECT_EQ(dst.value_at(0, 4).type(), ValueType::kDate);
  EXPECT_THROW(dst.append_gather(0, src, 0, rows.data(), rows.size()),
               AssertionError);
}

TEST(ColumnTableTest, ColumnSetPastItsInlineRangeHoldsEveryColumn) {
  ColumnSet s;
  EXPECT_FALSE(s.contains(0));
  s.add(3);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  ColumnSet t;
  t.add(3);
  EXPECT_FALSE(s.merge(t));
  t.add(200);
  EXPECT_TRUE(s.merge(t));
  EXPECT_TRUE(s.contains(200));
  s.add(ColumnSet::kInline);
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.contains(ColumnSet::kInline + 9));
  EXPECT_FALSE(s.merge(ColumnSet::all()));
}

TEST(ColumnTableTest, FilterBatchMatchesRowWisePredicate) {
  const Table t = mixed_table();
  const ColumnTable ct = ColumnTable::from_table(t);
  std::vector<std::size_t> col_map(t.schema().size());
  std::iota(col_map.begin(), col_map.end(), 0);

  const std::vector<ExprPtr> predicates = {
      gt(col("T.score"), lit(Value::real(2.0))),
      conj({gt(col("T.id"), lit_i64(2)), col("T.ok")}),
      eq(col("T.name"), lit_str("n5")),
      disj({lt(col("T.id"), lit_i64(2)), eq(col("T.name"), lit_str("n8"))}),
      cmp(CompareOp::kGe, col("T.day"), lit(Value::date(9005))),
  };
  for (const ExprPtr& p : predicates) {
    SCOPED_TRACE(p->to_string());
    const CompiledExpr pred(p, t.schema());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < t.row_count(); ++i) {
      if (pred.matches(t.row(i))) expected.push_back(i);
    }

    // Selection-vector input, filtered in place.
    std::vector<std::uint32_t> sel(t.row_count());
    std::iota(sel.begin(), sel.end(), 0);
    sel.resize(pred.filter_batch(ct, col_map, sel.data(), sel.size(),
                                 sel.data()));
    EXPECT_EQ(sel, expected);

    // Dense-range input: the same survivors, ids read off the range.
    const auto n = static_cast<std::uint32_t>(t.row_count());
    std::vector<std::uint32_t> range(n);
    range.resize(pred.filter_range(ct, col_map, 0, n, range.data()));
    EXPECT_EQ(range, expected);
  }
}

}  // namespace
}  // namespace mvd
