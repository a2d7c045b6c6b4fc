// Tests for src/sql: lexer and parser.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/sql/lexer.hpp"
#include "src/sql/parser.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

TEST(LexerTest, TokenKinds) {
  const auto tokens = tokenize("SELECT name FROM T WHERE x >= 1.5");
  ASSERT_EQ(tokens.size(), 9u);  // incl. end token
  EXPECT_TRUE(tokens[0].is_keyword("SELECT"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_TRUE(tokens[2].is_keyword("FROM"));
  EXPECT_TRUE(tokens[4].is_keyword("WHERE"));
  EXPECT_TRUE(tokens[6].is_symbol(">="));
  EXPECT_EQ(tokens[7].kind, TokenKind::kNumber);
  EXPECT_FALSE(tokens[7].is_integer);
  EXPECT_DOUBLE_EQ(tokens[7].number, 1.5);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(tokenize("select")[0].is_keyword("SELECT"));
  EXPECT_TRUE(tokenize("WhErE")[0].is_keyword("WHERE"));
}

TEST(LexerTest, StringEscapes) {
  const auto tokens = tokenize("'it''s'");
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringThrows) {
  EXPECT_THROW(tokenize("'oops"), ParseError);
}

TEST(LexerTest, UnexpectedCharacterThrows) {
  EXPECT_THROW(tokenize("a ; b"), ParseError);
}

TEST(LexerTest, IntegerVsFloat) {
  EXPECT_TRUE(tokenize("42")[0].is_integer);
  EXPECT_FALSE(tokenize("42.0")[0].is_integer);
  // "1." does not absorb the dot (dot needs a following digit).
  const auto tokens = tokenize("1.x");
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_TRUE(tokens[1].is_symbol("."));
}

TEST(ParserTest, BasicQueryShape) {
  const ParsedQuery q = parse_query(
      "SELECT Product.name, Did FROM Product, Division "
      "WHERE Division.city = 'LA' AND Product.Did = Division.Did");
  EXPECT_EQ(q.select_list,
            (std::vector<std::string>{"Product.name", "Did"}));
  EXPECT_EQ(q.relations, (std::vector<std::string>{"Product", "Division"}));
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(conjuncts_of(q.where).size(), 2u);
}

TEST(ParserTest, NoWhereClause) {
  const ParsedQuery q = parse_query("SELECT name FROM Product");
  EXPECT_EQ(q.where, nullptr);
}

TEST(ParserTest, SelectStar) {
  const ParsedQuery q = parse_query("SELECT * FROM Product");
  EXPECT_EQ(q.select_list, std::vector<std::string>{"*"});
}

TEST(ParserTest, OperatorsAndPrecedence) {
  // AND binds tighter than OR.
  const ExprPtr p = parse_predicate("a = 1 OR b = 2 AND c = 3");
  ASSERT_EQ(p->kind(), ExprKind::kOr);
  const auto& ops = static_cast<const BoolExpr&>(*p).operands();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[1]->kind(), ExprKind::kAnd);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const ExprPtr p = parse_predicate("(a = 1 OR b = 2) AND c = 3");
  EXPECT_EQ(p->kind(), ExprKind::kAnd);
}

TEST(ParserTest, NestingDepthIsBounded) {
  // 200k-deep nesting (a ~1 MB request) raises ParseError with the offset
  // instead of overflowing the stack.
  std::string nots;
  for (int i = 0; i < 200'000; ++i) nots += "NOT ";
  nots += "city = 'LA'";
  try {
    parse_predicate(nots);
    FAIL() << "200k NOTs parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset"), std::string::npos);
  }
  const std::string parens =
      std::string(200'000, '(') + "city = 'LA'" + std::string(200'000, ')');
  EXPECT_THROW(parse_predicate(parens), ParseError);
  EXPECT_THROW(parse_query("SELECT city FROM Customer WHERE " + nots),
               ParseError);

  // Nesting up to the limit still parses.
  std::string modest;
  for (std::size_t i = 0; i < kMaxPredicateNesting / 2; ++i) {
    modest += "NOT (";
  }
  modest += "city = 'LA'" + std::string(kMaxPredicateNesting / 2, ')');
  EXPECT_NO_THROW(parse_predicate(modest));
  EXPECT_THROW(parse_predicate("NOT " + modest), ParseError);
}

TEST(ParserTest, NotOperator) {
  const ExprPtr p = parse_predicate("NOT a = 1");
  EXPECT_EQ(p->kind(), ExprKind::kNot);
}

TEST(ParserTest, AllComparisonOperators) {
  for (const char* op : {"=", "<>", "!=", "<", "<=", ">", ">="}) {
    const ExprPtr p = parse_predicate(std::string("a ") + op + " 1");
    EXPECT_EQ(p->kind(), ExprKind::kComparison) << op;
  }
}

TEST(ParserTest, DateLiteralViaAdjacency) {
  const ExprPtr p = parse_predicate("d > DATE '1996-07-01'");
  const auto& c = static_cast<const ComparisonExpr&>(*p);
  const auto& l = static_cast<const LiteralExpr&>(*c.rhs());
  EXPECT_EQ(l.value().type(), ValueType::kDate);
  EXPECT_EQ(l.value().to_string(), "1996-07-01");
}

TEST(ParserTest, DateAsColumnName) {
  // "date" alone is a column; Order has one.
  const ExprPtr p = parse_predicate("date > DATE '1996-07-01'");
  const auto& c = static_cast<const ComparisonExpr&>(*p);
  EXPECT_EQ(c.lhs()->kind(), ExprKind::kColumn);
}

TEST(ParserTest, MalformedDateThrows) {
  EXPECT_THROW(parse_predicate("d > DATE '1996/07/01'"), ParseError);
  EXPECT_THROW(parse_predicate("d > DATE '1996-13-01'"), ParseError);
  EXPECT_THROW(parse_predicate("d > DATE '96'"), ParseError);
}

TEST(ParserTest, BooleanLiterals) {
  EXPECT_EQ(parse_predicate("a = TRUE")->kind(), ExprKind::kComparison);
  EXPECT_EQ(parse_predicate("a = false")->kind(), ExprKind::kComparison);
}

TEST(ParserTest, SyntaxErrorsCarryOffsets) {
  try {
    parse_query("SELECT FROM T");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  EXPECT_THROW(parse_query("name FROM T"), ParseError);
  EXPECT_THROW(parse_query("SELECT a FROM T WHERE"), ParseError);
  EXPECT_THROW(parse_query("SELECT a FROM T extra"), ParseError);
  EXPECT_THROW(parse_predicate("a ="), ParseError);
  EXPECT_THROW(parse_predicate("(a = 1"), ParseError);
}

TEST(ParseAndBindTest, ProducesBoundSpec) {
  const Catalog catalog = make_paper_catalog();
  const QuerySpec q = parse_and_bind(
      catalog, "Q1", 10.0,
      "SELECT Product.name FROM Product, Division "
      "WHERE Division.city = 'LA' AND Product.Did = Division.Did");
  EXPECT_EQ(q.name(), "Q1");
  EXPECT_EQ(q.joins().size(), 1u);
  EXPECT_EQ(q.selections().size(), 1u);
}

TEST(ParseAndBindTest, StarExpandsAllColumns) {
  const Catalog catalog = make_paper_catalog();
  const QuerySpec q =
      parse_and_bind(catalog, "Q", 1.0, "SELECT * FROM Product, Division");
  EXPECT_EQ(q.projection().size(), 6u);
}

TEST(ParseAndBindTest, UnknownRelationThrows) {
  const Catalog catalog = make_paper_catalog();
  EXPECT_THROW(parse_and_bind(catalog, "Q", 1.0, "SELECT * FROM Nope"),
               CatalogError);
  EXPECT_THROW(
      parse_and_bind(catalog, "Q", 1.0, "SELECT bogus FROM Product"),
      BindError);
}

TEST(ParseAndBindTest, PaperQueriesAllBind) {
  const PaperExample ex = make_paper_example();
  ASSERT_EQ(ex.queries.size(), 4u);
  EXPECT_EQ(ex.queries[0].name(), "Q1");
  EXPECT_DOUBLE_EQ(ex.queries[0].frequency(), 10.0);
  EXPECT_DOUBLE_EQ(ex.queries[1].frequency(), 0.5);
  EXPECT_DOUBLE_EQ(ex.queries[2].frequency(), 0.8);
  EXPECT_DOUBLE_EQ(ex.queries[3].frequency(), 5.0);
  EXPECT_EQ(ex.queries[2].relations().size(), 4u);
  EXPECT_EQ(ex.queries[2].joins().size(), 3u);
  EXPECT_TRUE(ex.queries[2].join_graph_connected());
}

}  // namespace
}  // namespace mvd
