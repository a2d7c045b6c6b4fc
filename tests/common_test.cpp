// Tests for src/common: assertions, strings, units, random, text tables.
#include <gtest/gtest.h>

#include <set>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/common/units.hpp"

namespace mvd {
namespace {

TEST(Assert, PassingAssertDoesNothing) { MVD_ASSERT(1 + 1 == 2); }

TEST(Assert, FailingAssertThrowsAssertionError) {
  EXPECT_THROW(MVD_ASSERT(1 == 2), AssertionError);
}

TEST(Assert, MessageIncludesExpressionAndLocation) {
  try {
    MVD_ASSERT_MSG(false, "extra " << 42);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("extra 42"), std::string::npos);
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(equals_icase("SELECT", "select"));
  EXPECT_FALSE(equals_icase("SELECT", "selec"));
  EXPECT_TRUE(starts_with_icase("Select * from", "SELECT"));
  EXPECT_FALSE(starts_with_icase("Sel", "SELECT"));
}

TEST(Strings, StrCatStreamsArguments) {
  EXPECT_EQ(str_cat("a", 1, '-', 2.5), "a1-2.5");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Units, FormatBlocksMatchesPaperNotation) {
  EXPECT_EQ(format_blocks(35'250), "35.25k");
  EXPECT_EQ(format_blocks(12'065'000), "12.065m");
  EXPECT_EQ(format_blocks(250), "250");
  EXPECT_EQ(format_blocks(95'671'000), "95.671m");
  EXPECT_EQ(format_blocks(0), "0");
  EXPECT_EQ(format_blocks(2.5e9), "2.5g");
}

TEST(Units, ParseBlocksRoundTrips) {
  EXPECT_DOUBLE_EQ(parse_blocks("35.25k"), 35'250.0);
  EXPECT_DOUBLE_EQ(parse_blocks("12.065m"), 12'065'000.0);
  EXPECT_DOUBLE_EQ(parse_blocks("42"), 42.0);
  EXPECT_DOUBLE_EQ(parse_blocks(" 1.5G "), 1.5e9);
}

TEST(Units, ParseBlocksRejectsGarbage) {
  EXPECT_THROW(parse_blocks(""), Error);
  EXPECT_THROW(parse_blocks("abc"), Error);
  EXPECT_THROW(parse_blocks("1.2.3k"), Error);
}

TEST(Random, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Random, UniformIntInRange) {
  Rng rng(42);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 1000 draws
}

TEST(Random, Uniform01InUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Random, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  ZipfSampler zipf(10, 1.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
  double total_pmf = 0;
  for (std::size_t k = 0; k < 10; ++k) total_pmf += zipf.pmf(k);
  EXPECT_NEAR(total_pmf, 1.0, 1e-12);
}

TEST(Random, ZipfZeroSkewIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(zipf.pmf(k), 0.25, 1e-12);
}

TEST(Hash, CombineChangesWithInput) {
  std::size_t a = 0, b = 0;
  hash_combine(a, 1);
  hash_combine(b, 2);
  EXPECT_NE(a, b);
}

TEST(Hash, Fnv1aStableValues) {
  // Reference values of FNV-1a 64-bit.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "cost"}, {Align::kLeft, Align::kRight});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "23456"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Right-aligned numbers end in the same column.
  const auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[2].size(), lines[3].size());
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(TextTable, SeparatorAndIndent) {
  TextTable t({"h"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  const std::string out = t.render(2);
  for (const auto& line : split(out, '\n')) {
    if (!line.empty()) {
      EXPECT_EQ(line.substr(0, 2), "  ");
    }
  }
  EXPECT_EQ(t.row_count(), 3u);
}

}  // namespace
}  // namespace mvd
