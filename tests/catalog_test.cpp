// Tests for src/catalog: schemas, statistics, catalog registration.
#include <gtest/gtest.h>

#include "src/catalog/catalog.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {
namespace {

/// Stats that set only the cardinality (blocks and columns derived).
RelationStats rows_only(double rows) {
  RelationStats stats;
  stats.rows = rows;
  return stats;
}

Schema product_schema() {
  return Schema({{"Pid", ValueType::kInt64, "Product"},
                 {"name", ValueType::kString, "Product"},
                 {"Did", ValueType::kInt64, "Product"}});
}

TEST(ValueTypeTest, Names) {
  EXPECT_EQ(to_string(ValueType::kInt64), "int64");
  EXPECT_EQ(to_string(ValueType::kString), "string");
  EXPECT_EQ(to_string(ValueType::kDate), "date");
}

TEST(ValueTypeTest, NumericClassification) {
  EXPECT_TRUE(is_numeric(ValueType::kInt64));
  EXPECT_TRUE(is_numeric(ValueType::kDouble));
  EXPECT_TRUE(is_numeric(ValueType::kDate));
  EXPECT_FALSE(is_numeric(ValueType::kString));
  EXPECT_FALSE(is_numeric(ValueType::kBool));
}

TEST(SchemaTest, QualifiedNames) {
  const Schema s = product_schema();
  EXPECT_EQ(s.at(0).qualified(), "Product.Pid");
  Attribute bare{"x", ValueType::kInt64, ""};
  EXPECT_EQ(bare.qualified(), "x");
}

TEST(SchemaTest, FindBareAndQualified) {
  const Schema s = product_schema();
  EXPECT_EQ(s.index_of("Pid"), 0u);
  EXPECT_EQ(s.index_of("Product.name"), 1u);
  EXPECT_FALSE(s.find("missing").has_value());
  EXPECT_FALSE(s.find("Division.Pid").has_value());
}

TEST(SchemaTest, AmbiguousBareNameThrows) {
  const Schema s = Schema::concat(
      product_schema(), Schema({{"name", ValueType::kString, "Customer"}}));
  EXPECT_THROW(s.find("name"), BindError);
  EXPECT_EQ(s.index_of("Customer.name"), 3u);
}

TEST(SchemaTest, UnknownNameThrowsOnIndexOf) {
  EXPECT_THROW(product_schema().index_of("nope"), BindError);
}

TEST(SchemaTest, DuplicateQualifiedAttributeAsserts) {
  EXPECT_THROW(Schema({{"a", ValueType::kInt64, "R"},
                       {"a", ValueType::kInt64, "R"}}),
               AssertionError);
}

TEST(SchemaTest, SameBareNameDifferentSourceAllowed) {
  const Schema s({{"a", ValueType::kInt64, "R"}, {"a", ValueType::kInt64, "S"}});
  EXPECT_EQ(s.size(), 2u);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  const Schema s = Schema::concat(
      product_schema(), Schema({{"city", ValueType::kString, "Division"}}));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.at(3).qualified(), "Division.city");
}

TEST(SchemaTest, ToStringListsTypes) {
  EXPECT_NE(product_schema().to_string().find("Product.Pid int64"),
            std::string::npos);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog c(10.0);
  RelationStats stats;
  stats.rows = 100;
  c.add_relation("R", product_schema(), stats, 2.0);
  EXPECT_TRUE(c.has_relation("R"));
  EXPECT_FALSE(c.has_relation("S"));
  EXPECT_EQ(c.schema("R").size(), 3u);
  EXPECT_DOUBLE_EQ(c.stats("R").rows, 100.0);
  EXPECT_DOUBLE_EQ(c.update_frequency("R"), 2.0);
  EXPECT_EQ(c.relation_names(), std::vector<std::string>{"R"});
}

TEST(CatalogTest, DuplicateRelationThrows) {
  Catalog c;
  c.add_relation("R", product_schema(), rows_only(1));
  EXPECT_THROW(c.add_relation("R", product_schema(), rows_only(1)),
               CatalogError);
}

TEST(CatalogTest, UnknownRelationThrows) {
  Catalog c;
  EXPECT_THROW(c.schema("missing"), CatalogError);
  EXPECT_THROW(c.stats("missing"), CatalogError);
  EXPECT_THROW(c.update_frequency("missing"), CatalogError);
}

TEST(CatalogTest, InvalidInputsRejected) {
  Catalog c;
  EXPECT_THROW(c.add_relation("", product_schema(), rows_only(1)),
               CatalogError);
  EXPECT_THROW(c.add_relation("R", product_schema(), rows_only(-5)),
               CatalogError);
  EXPECT_THROW(
      c.add_relation("R", product_schema(), rows_only(1), /*fu=*/-1.0),
      CatalogError);
  EXPECT_THROW(Catalog(-1.0), CatalogError);
}

TEST(CatalogTest, StatsForUnknownColumnRejected) {
  Catalog c;
  RelationStats stats;
  stats.rows = 10;
  stats.columns["bogus"] = {};
  EXPECT_THROW(c.add_relation("R", product_schema(), stats), CatalogError);
}

TEST(CatalogTest, NonPositiveDistinctRejected) {
  Catalog c;
  RelationStats stats;
  stats.rows = 10;
  ColumnStats cs;
  cs.distinct = 0.0;
  stats.columns["Pid"] = cs;
  EXPECT_THROW(c.add_relation("R", product_schema(), stats), CatalogError);
}

TEST(CatalogTest, BlocksForRowsUsesBlockingFactor) {
  Catalog c(10.0);
  EXPECT_DOUBLE_EQ(c.blocks_for_rows(30'000), 3'000.0);
  EXPECT_DOUBLE_EQ(c.blocks_for_rows(5), 1.0);   // at least one block
  EXPECT_DOUBLE_EQ(c.blocks_for_rows(0), 0.0);
  EXPECT_DOUBLE_EQ(c.blocks_for_rows(11), 2.0);  // ceiling
}

TEST(CatalogTest, UpdateFrequencyMutable) {
  Catalog c;
  c.add_relation("R", product_schema(), rows_only(1));
  c.set_update_frequency("R", 7.5);
  EXPECT_DOUBLE_EQ(c.update_frequency("R"), 7.5);
  EXPECT_THROW(c.set_update_frequency("R", -1), CatalogError);
  EXPECT_THROW(c.set_update_frequency("missing", 1), CatalogError);
}

TEST(CatalogTest, JoinSizeOverrides) {
  Catalog c;
  c.add_relation("R", product_schema(), rows_only(10));
  c.add_relation("S",
                 Schema({{"Did", ValueType::kInt64, "S"}}), rows_only(20));
  c.add_join_size_override({"R", "S"}, {15, 3});
  const JoinSizeOverride* pin = c.join_size_override({"S", "R"});
  ASSERT_NE(pin, nullptr);
  EXPECT_DOUBLE_EQ(pin->rows, 15.0);
  EXPECT_DOUBLE_EQ(*pin->blocks, 3.0);
  EXPECT_EQ(c.join_size_override({"R"}), nullptr);
}

TEST(CatalogTest, JoinOverrideValidation) {
  Catalog c;
  c.add_relation("R", product_schema(), rows_only(10));
  EXPECT_THROW(c.add_join_size_override({"R"}, {1, 1}), CatalogError);
  EXPECT_THROW(c.add_join_size_override({"R", "unknown"}, {1, 1}),
               CatalogError);
}

TEST(ColumnStatsTest, LookupHelper) {
  RelationStats stats;
  ColumnStats cs;
  cs.distinct = 5;
  stats.columns["a"] = cs;
  ASSERT_NE(stats.column("a"), nullptr);
  EXPECT_DOUBLE_EQ(*stats.column("a")->distinct, 5.0);
  EXPECT_EQ(stats.column("b"), nullptr);
}

}  // namespace
}  // namespace mvd
