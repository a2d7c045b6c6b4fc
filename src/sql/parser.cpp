#include "src/sql/parser.hpp"

#include <atomic>
#include <cstdint>
#include <optional>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/sql/lexer.hpp"

namespace mvd {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& sql) : tokens_(tokenize(sql)) {}

  ParsedQuery parse_query() {
    expect_keyword("SELECT");
    ParsedQuery q;
    parse_select_list(q);
    expect_keyword("FROM");
    q.relations.push_back(expect_identifier("relation name"));
    while (accept_symbol(",")) {
      q.relations.push_back(expect_identifier("relation name"));
    }
    if (accept_keyword("WHERE")) {
      q.where = parse_disjunction();
    }
    if (accept_keyword("GROUP")) {
      expect_keyword("BY");
      q.group_by.push_back(parse_column_name());
      while (accept_symbol(",")) q.group_by.push_back(parse_column_name());
      if (q.aggregates.empty()) {
        fail("aggregate function in the SELECT list (GROUP BY present)");
      }
    }
    expect_end();
    return q;
  }

  ExprPtr parse_standalone_predicate() {
    ExprPtr e = parse_disjunction();
    expect_end();
    return e;
  }

 private:
  const Token& cur() const { return tokens_[pos_]; }

  void advance() {
    if (cur().kind != TokenKind::kEnd) ++pos_;
  }

  [[noreturn]] void fail(const std::string& expected) const {
    throw ParseError(str_cat("expected ", expected, " at offset ",
                             cur().offset, ", found '",
                             cur().kind == TokenKind::kEnd ? "<end>"
                                                           : cur().text,
                             "'"));
  }

  bool accept_keyword(const std::string& kw) {
    if (cur().is_keyword(kw)) {
      advance();
      return true;
    }
    return false;
  }

  void expect_keyword(const std::string& kw) {
    if (!accept_keyword(kw)) fail("keyword " + kw);
  }

  bool accept_symbol(const std::string& s) {
    if (cur().is_symbol(s)) {
      advance();
      return true;
    }
    return false;
  }

  void expect_symbol(const std::string& s) {
    if (!accept_symbol(s)) fail("'" + s + "'");
  }

  std::string expect_identifier(const std::string& what) {
    if (cur().kind != TokenKind::kIdentifier) fail(what);
    std::string text = cur().text;
    advance();
    return text;
  }

  void expect_end() {
    if (cur().kind != TokenKind::kEnd) fail("end of input");
  }

  // ident or ident.ident
  std::string parse_column_name() {
    std::string name = expect_identifier("column name");
    if (accept_symbol(".")) {
      name += "." + expect_identifier("column name after '.'");
    }
    return name;
  }

  static std::optional<AggFn> agg_fn_named(const std::string& name) {
    if (equals_icase(name, "count")) return AggFn::kCount;
    if (equals_icase(name, "sum")) return AggFn::kSum;
    if (equals_icase(name, "min")) return AggFn::kMin;
    if (equals_icase(name, "max")) return AggFn::kMax;
    if (equals_icase(name, "avg")) return AggFn::kAvg;
    return std::nullopt;
  }

  void parse_select_list(ParsedQuery& q) {
    if (accept_symbol("*")) {
      q.select_list.push_back("*");
      return;
    }
    parse_select_item(q);
    while (accept_symbol(",")) parse_select_item(q);
  }

  void parse_select_item(ParsedQuery& q) {
    // Aggregate item: FN ( column | * ) [AS alias]. An identifier named
    // like an aggregate followed by '(' is the function; otherwise it is
    // a plain column.
    if (cur().kind == TokenKind::kIdentifier &&
        tokens_[pos_ + 1].is_symbol("(")) {
      const auto fn = agg_fn_named(cur().text);
      if (fn.has_value()) {
        advance();  // function name
        advance();  // '('
        AggSpec agg;
        agg.fn = *fn;
        if (accept_symbol("*")) {
          if (agg.fn != AggFn::kCount) {
            fail("a column inside the aggregate (only COUNT accepts *)");
          }
        } else {
          agg.column = parse_column_name();
        }
        expect_symbol(")");
        if (accept_keyword("AS")) {
          agg.alias = expect_identifier("alias after AS");
        }
        q.aggregates.push_back(std::move(agg));
        return;
      }
    }
    q.select_list.push_back(parse_column_name());
  }

  ExprPtr parse_disjunction() {
    std::vector<ExprPtr> terms{parse_conjunction()};
    while (accept_keyword("OR")) terms.push_back(parse_conjunction());
    return disj(std::move(terms));
  }

  ExprPtr parse_conjunction() {
    std::vector<ExprPtr> terms{parse_term()};
    while (accept_keyword("AND")) terms.push_back(parse_term());
    return conj(std::move(terms));
  }

  ExprPtr parse_term() {
    if (accept_keyword("NOT")) {
      return neg(nested([&] { return parse_term(); }));
    }
    if (accept_symbol("(")) {
      ExprPtr e = nested([&] { return parse_disjunction(); });
      expect_symbol(")");
      return e;
    }
    return parse_comparison();
  }

  /// Run `parse` one NOT / '(' level deeper. Past kMaxPredicateNesting
  /// levels the parse stops with a ParseError, so a hostile request cannot
  /// recurse the stack away (a throw abandons the parser, depth_ with it).
  template <typename F>
  ExprPtr nested(F&& parse) {
    if (depth_ == kMaxPredicateNesting) {
      throw ParseError(str_cat("predicate nested deeper than ",
                               kMaxPredicateNesting, " levels at offset ",
                               cur().offset));
    }
    ++depth_;
    ExprPtr e = parse();
    --depth_;
    return e;
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_operand();
    CompareOp op;
    if (accept_symbol("=")) {
      op = CompareOp::kEq;
    } else if (accept_symbol("<>") || accept_symbol("!=")) {
      op = CompareOp::kNe;
    } else if (accept_symbol("<=")) {
      op = CompareOp::kLe;
    } else if (accept_symbol(">=")) {
      op = CompareOp::kGe;
    } else if (accept_symbol("<")) {
      op = CompareOp::kLt;
    } else if (accept_symbol(">")) {
      op = CompareOp::kGt;
    } else {
      fail("comparison operator");
    }
    ExprPtr rhs = parse_operand();
    return cmp(op, std::move(lhs), std::move(rhs));
  }

  ExprPtr parse_operand() {
    if (cur().kind == TokenKind::kIdentifier) {
      // DATE 'YYYY-MM-DD' is a date literal; a lone "date" identifier is a
      // column reference.
      if (equals_icase(cur().text, "date") &&
          tokens_[pos_ + 1].kind == TokenKind::kString) {
        advance();
        const std::string text = cur().text;
        advance();
        return lit(parse_date(text));
      }
      return col(parse_column_name());
    }
    if (cur().kind == TokenKind::kNumber) {
      const Token t = cur();
      advance();
      return t.is_integer ? lit_i64(static_cast<std::int64_t>(t.number))
                          : lit_real(t.number);
    }
    if (cur().kind == TokenKind::kString) {
      std::string s = cur().text;
      advance();
      return lit_str(std::move(s));
    }
    if (accept_keyword("TRUE")) return lit(Value::boolean(true));
    if (accept_keyword("FALSE")) return lit(Value::boolean(false));
    fail("operand (column, number, string, TRUE/FALSE or DATE '...')");
  }

  Value parse_date(const std::string& text) const {
    const std::vector<std::string> parts = split(text, '-');
    if (parts.size() == 3) {
      char* e1 = nullptr;
      char* e2 = nullptr;
      char* e3 = nullptr;
      const long y = std::strtol(parts[0].c_str(), &e1, 10);
      const long m = std::strtol(parts[1].c_str(), &e2, 10);
      const long d = std::strtol(parts[2].c_str(), &e3, 10);
      const bool ok = *e1 == '\0' && *e2 == '\0' && *e3 == '\0' &&
                      !parts[0].empty() && !parts[1].empty() &&
                      !parts[2].empty() && m >= 1 && m <= 12 && d >= 1 &&
                      d <= 31;
      if (ok) {
        return Value::date_ymd(static_cast<int>(y), static_cast<int>(m),
                               static_cast<int>(d));
      }
    }
    throw ParseError("malformed date literal '" + text +
                     "' (expected 'YYYY-MM-DD')");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open NOT / '(' levels
};

}  // namespace

ParsedQuery parse_query(const std::string& sql) {
  return Parser(sql).parse_query();
}

ExprPtr parse_predicate(const std::string& text) {
  return Parser(text).parse_standalone_predicate();
}

QuerySpec bind_parsed(const Catalog& catalog, const std::string& name,
                      double frequency, ParsedQuery parsed) {
  std::vector<std::string> select_list = std::move(parsed.select_list);
  if (select_list.size() == 1 && select_list[0] == "*") {
    if (!parsed.aggregates.empty()) {
      throw BindError("SELECT * cannot be combined with aggregates");
    }
    select_list.clear();
    for (const std::string& rel : parsed.relations) {
      if (!catalog.has_relation(rel)) {
        throw CatalogError("unknown relation '" + rel + "'");
      }
      for (const Attribute& a : catalog.schema(rel).attributes()) {
        select_list.push_back(rel + "." + a.name);
      }
    }
  }
  return QuerySpec::bind(catalog, name, frequency, std::move(parsed.relations),
                         parsed.where, std::move(select_list),
                         std::move(parsed.group_by),
                         std::move(parsed.aggregates));
}

QuerySpec parse_and_bind(const Catalog& catalog, const std::string& name,
                         double frequency, const std::string& sql) {
  return bind_parsed(catalog, name, frequency, parse_query(sql));
}

QuerySpec bind_adhoc(const Catalog& catalog, ParsedQuery parsed) {
  static std::atomic<std::uint64_t> next{0};
  const std::uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
  return bind_parsed(catalog, "adhoc-" + std::to_string(n), 1.0,
                     std::move(parsed));
}

QuerySpec parse_adhoc(const Catalog& catalog, const std::string& sql) {
  return bind_adhoc(catalog, parse_query(sql));
}

}  // namespace mvd
