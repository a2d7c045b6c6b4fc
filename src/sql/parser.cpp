#include "src/sql/parser.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/sql/lexer.hpp"

namespace mvd {

namespace {

/// A DATE '...' literal's value; throws ParseError when `text` is not
/// YYYY-MM-DD.
Value parse_date(const std::string& text) {
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

/// A number, a string (the text of a DATE '...' too), TRUE or FALSE.
bool is_literal(const Token& t) {
  return t.kind == TokenKind::kNumber || t.kind == TokenKind::kString ||
         t.is_keyword("TRUE") || t.is_keyword("FALSE");
}

/// The value of the is_literal() token at `tokens[i]`.
Value literal_value(const std::vector<Token>& tokens, std::size_t i) {
  const Token& t = tokens[i];
  switch (t.kind) {
    case TokenKind::kNumber:
      return t.is_integer ? Value::int64(t.integer) : Value::real(t.number);
    case TokenKind::kString:
      return is_date_text(tokens, i) ? parse_date(t.text)
                                     : Value::string(t.text);
    default:
      return Value::boolean(t.is_keyword("TRUE"));
  }
}

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

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

  bool accept_keyword(std::string_view kw) {
    if (cur().is_keyword(kw)) {
      advance();
      return true;
    }
    return false;
  }

  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw)) fail(str_cat("keyword ", kw));
  }

  bool accept_symbol(std::string_view s) {
    if (cur().is_symbol(s)) {
      advance();
      return true;
    }
    return false;
  }

  void expect_symbol(std::string_view s) {
    if (!accept_symbol(s)) fail(str_cat("'", s, "'"));
  }

  std::string expect_identifier(const char* what) {
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
      name += '.';
      name += expect_identifier("column name after '.'");
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
      if (!is_date_text(tokens_, pos_ + 1)) return col(parse_column_name());
      advance();
    }
    if (is_literal(cur())) {
      ExprPtr e = lit(literal_value(tokens_, pos_));
      advance();
      return e;
    }
    fail("operand (column, number, string, TRUE/FALSE or DATE '...')");
  }

  const std::vector<Token>& tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open NOT / '(' levels
};

}  // namespace

ParsedQuery parse_query(const std::string& sql) {
  return parse_tokens(tokenize(sql));
}

ParsedQuery parse_tokens(const std::vector<Token>& tokens) {
  return Parser(tokens).parse_query();
}

ExprPtr parse_predicate(const std::string& text) {
  return Parser(tokenize(text)).parse_standalone_predicate();
}

std::vector<Value> literal_values(const std::vector<Token>& tokens) {
  std::vector<Value> out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (is_literal(tokens[i])) out.push_back(literal_value(tokens, i));
  }
  return out;
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

std::string adhoc_name() {
  static std::atomic<std::uint64_t> next{0};
  return "adhoc-" + std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

QuerySpec bind_adhoc(const Catalog& catalog, ParsedQuery parsed) {
  return bind_parsed(catalog, adhoc_name(), 1.0, std::move(parsed));
}

QuerySpec parse_adhoc(const Catalog& catalog, const std::string& sql) {
  return bind_adhoc(catalog, parse_query(sql));
}

}  // namespace mvd
