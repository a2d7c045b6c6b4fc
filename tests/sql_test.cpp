// Tests for src/sql: lexer and parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

TEST(LexerTest, ShapeReplacesLiteralsByLexicalType) {
  EXPECT_EQ(lex("SELECT name FROM T WHERE x >= 1.5 AND y = 'it''s' OR "
                "d > DATE '1996-07-01' AND b = TRUE AND n <> 42")
                .shape,
            "SELECT name FROM T WHERE x >= ?d AND y = ?s OR d > ?D AND "
            "b = ?b AND n <> ?i");
  // Keyword case and whitespace do not change a shape; identifiers do.
  EXPECT_EQ(lex("select a\nFROM  T where a>1").shape,
            lex("SELECT a FROM T WHERE a > 2").shape);
  EXPECT_NE(lex("SELECT a FROM T").shape, lex("SELECT A FROM T").shape);
  // "date" before a string is the DATE prefix in any case; alone it is a
  // column.
  EXPECT_EQ(lex("d > date '1996-07-01'").shape, "d > ?D");
  EXPECT_EQ(lex("date > 1").shape, "date > ?i");
  // Tokens stay separated, so adjacent identifiers cannot merge.
  EXPECT_NE(lex("ab c").shape, lex("a bc").shape);
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

/// The literal `sql`'s WHERE clause compares against.
Value where_literal(const std::string& sql) {
  const ParsedQuery q = parse_query(sql);
  const auto& c = static_cast<const ComparisonExpr&>(*q.where);
  return static_cast<const LiteralExpr&>(*c.rhs()).value();
}

// Integers are read exactly into int64, never through a double.
TEST(SqlTest, IntegerLiteralsAreExact) {
  const Value two53_plus_1 =
      where_literal("SELECT name FROM Product WHERE Pid = 9007199254740993");
  ASSERT_EQ(two53_plus_1.type(), ValueType::kInt64);
  EXPECT_EQ(two53_plus_1.as_int64(), std::int64_t{9007199254740993});

  const Value max =
      where_literal("SELECT name FROM Product WHERE Pid = 9223372036854775807");
  ASSERT_EQ(max.type(), ValueType::kInt64);
  EXPECT_EQ(max.as_int64(), std::numeric_limits<std::int64_t>::max());

  const auto tokens = tokenize("9007199254740993");
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_EQ(tokens[0].integer, std::int64_t{9007199254740993});
}

TEST(SqlTest, OutOfRangeIntegerLiteralThrowsWithItsOffset) {
  const std::string sql =
      "SELECT name FROM Product WHERE Pid = 99999999999999999999";
  try {
    parse_query(sql);
    FAIL() << "a 20-digit integer parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "at offset " + std::to_string(sql.find("9999"))),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(tokenize("9223372036854775808"), ParseError);
  // A double of that magnitude is still a double.
  EXPECT_FALSE(tokenize("99999999999999999999.5")[0].is_integer);
}

// A '-' right before a digit, where an operand is expected, is the sign of
// a negative literal; anywhere else it is still no operator, so there is
// no subtraction and no detached sign.
TEST(SqlTest, NegativeLiterals) {
  const Value neg = where_literal("SELECT name FROM Product WHERE Pid > -5");
  ASSERT_EQ(neg.type(), ValueType::kInt64);
  EXPECT_EQ(neg.as_int64(), -5);
  const Value real =
      where_literal("SELECT name FROM Product WHERE Pid > -2.5");
  ASSERT_EQ(real.type(), ValueType::kDouble);
  EXPECT_EQ(real.as_double(), -2.5);
  const Value min = where_literal(
      "SELECT name FROM Product WHERE Pid = -9223372036854775808");
  ASSERT_EQ(min.type(), ValueType::kInt64);
  EXPECT_EQ(min.as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(tokenize("-9223372036854775809"), ParseError);

  EXPECT_EQ(lex("Pid > -5 AND (-2.5 < x OR y = -0)").shape,
            "Pid > ?i AND ( ?d < x OR y = ?i )");
  EXPECT_EQ(lex("a > -5").shape, lex("a > 5").shape);
  for (const char* bad :
       {"SELECT name FROM Product WHERE Pid > 0 - 5",
        "SELECT name FROM Product WHERE Pid > - 5",
        "SELECT name FROM Product WHERE Pid > 0 -5",
        "SELECT name FROM Product WHERE Pid -5 > 0",
        "SELECT name FROM Product WHERE (Pid) -5 > 0"}) {
    EXPECT_THROW(parse_query(bad), ParseError) << bad;
  }

  // A spec holding negative literals renders SQL that reads back as it.
  const Catalog catalog = make_paper_catalog();
  const QuerySpec q = parse_adhoc(
      catalog, "SELECT name FROM Product WHERE Pid > -5 AND Pid < -2.5");
  const QuerySpec back = parse_adhoc(catalog, q.to_sql());
  EXPECT_EQ(back.fingerprint(), q.fingerprint()) << q.to_sql();
}

// Doubles render as the shortest text that reads back as the same value,
// so two literals that differ past the sixth digit stay two conjuncts with
// two texts, and the query's identity differs from either alone.
TEST(SqlTest, CloseDoubleLiteralsKeepTheirOwnIdentity) {
  const Catalog catalog = make_paper_catalog();
  const QuerySpec both = parse_adhoc(
      catalog,
      "SELECT name FROM Product WHERE Pid > 1234567.8 AND Pid > 1234567.9");
  ASSERT_EQ(both.canonical_conjuncts().size(), 2u);
  EXPECT_NE(both.fingerprint().find("(Product.Pid > 1234567.8)"),
            std::string::npos)
      << both.fingerprint();
  EXPECT_NE(both.fingerprint().find("(Product.Pid > 1234567.9)"),
            std::string::npos)
      << both.fingerprint();
  for (const char* one :
       {"SELECT name FROM Product WHERE Pid > 1234567.8",
        "SELECT name FROM Product WHERE Pid > 1234567.9"}) {
    EXPECT_NE(parse_adhoc(catalog, one).fingerprint(), both.fingerprint())
        << one;
  }
  EXPECT_EQ(Value::real(0.1).to_string(), "0.1");
  EXPECT_EQ(Value::real(1e20).to_string(), "100000000000000000000");
  EXPECT_EQ(Value::real(-2.5e-7).to_string(), "-0.00000025");
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
