// Tokenizer for the SQL subset (SELECT–FROM–WHERE over SPJ predicates).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mvd {

enum class TokenKind {
  kIdentifier,  // Product, Div.city   (qualification handled by the parser)
  kKeyword,     // SELECT FROM WHERE AND OR NOT TRUE FALSE GROUP BY AS
  kNumber,      // 42, 3.5, -7 (signed only where an operand is expected)
  kString,      // 'LA' with '' escaping
  kSymbol,      // , . ( ) = <> != < <= > >= *
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;      // raw text; keywords upper-cased, strings unquoted
  double number = 0;     // kNumber value
  std::int64_t integer = 0;  // exact kNumber value when is_integer
  bool is_integer = false;
  std::size_t offset = 0;  // byte offset, for error messages

  bool is_keyword(std::string_view kw) const {
    return kind == TokenKind::kKeyword && text == kw;
  }
  bool is_symbol(std::string_view s) const {
    return kind == TokenKind::kSymbol && text == s;
  }
};

/// A tokenized statement and its shape: the token sequence with every
/// literal replaced by its lexical type — "?i" integer, "?d" double,
/// "?s" string, "?D" for DATE '...', "?b" for TRUE/FALSE — keywords
/// upper-cased, tokens separated by one space. Two statements with equal
/// shapes parse to the same tree up to literal values; whitespace and
/// keyword case do not change a shape.
struct Lexed {
  std::vector<Token> tokens;  // ends with a kEnd token
  std::string shape;
};

/// Tokenize `sql` and build its shape in the same pass; throws
/// ParseError on malformed input, including an integer literal outside
/// int64.
Lexed lex(const std::string& sql);

/// lex(sql).tokens.
std::vector<Token> tokenize(const std::string& sql);

/// True when `tokens[i]` is a string that the parser reads as the text
/// of a DATE '...' literal: the token before it is the identifier "date"
/// in any case. Such a pair is one literal in a shape.
bool is_date_text(const std::vector<Token>& tokens, std::size_t i);

}  // namespace mvd
