#include "src/sql/lexer.hpp"

#include <array>
#include <charconv>
#include <cstdlib>

#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

namespace {

// DATE is intentionally not a keyword: the date-literal prefix is
// recognized by the parser from adjacency (DATE '...'), so relations may
// have a column named "date" (the paper's Order relation does).
constexpr std::array<std::string_view, 11> kKeywords = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT",
    "TRUE",   "FALSE", "GROUP", "BY", "AS"};

// ASCII classification, as the "C" locale's <cctype> but inlined: the
// lexer classifies every byte of every request.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool is_word(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

/// The keyword `word` spells in any case, or empty.
std::string_view keyword(std::string_view word) {
  for (const std::string_view kw : kKeywords) {
    if (kw.size() != word.size()) continue;
    std::size_t i = 0;
    while (i < kw.size() && (word[i] & ~0x20) == kw[i]) ++i;
    if (i == kw.size()) return kw;
  }
  return {};
}

/// Whether the next token stands where an operand is expected: nothing
/// before it, or a token that cannot end an operand (not a number,
/// identifier, string or closing parenthesis). `tokens` ends with the
/// token being lexed.
bool operand_expected(const std::vector<Token>& tokens) {
  if (tokens.size() < 2) return true;
  const Token& prev = tokens[tokens.size() - 2];
  return prev.kind != TokenKind::kNumber &&
         prev.kind != TokenKind::kIdentifier &&
         prev.kind != TokenKind::kString && !prev.is_symbol(")");
}

}  // namespace

bool is_date_text(const std::vector<Token>& tokens, std::size_t i) {
  return tokens[i].kind == TokenKind::kString && i > 0 &&
         tokens[i - 1].kind == TokenKind::kIdentifier &&
         equals_icase(tokens[i - 1].text, "date");
}

Lexed lex(const std::string& sql) {
  Lexed out;
  std::vector<Token>& tokens = out.tokens;
  std::string& shape = out.shape;
  tokens.reserve(8 + sql.size() / 4);  // typical SQL: 5 or more chars a token
  shape.reserve(sql.size());
  std::size_t i = 0;
  const std::size_t n = sql.size();
  std::size_t piece = 0;  // where the previous token's shape piece starts

  const auto peek = [&](std::size_t k) -> char {
    return i + k < n ? sql[i + k] : '\0';
  };
  const auto emit = [&](std::string_view text) {
    if (!shape.empty()) shape += ' ';
    piece = shape.size();
    shape += text;
  };

  while (i < n) {
    const char c = sql[i];
    if (is_space(c)) {
      ++i;
      continue;
    }
    Token& tok = tokens.emplace_back();
    tok.offset = i;

    if (is_alpha(c) || c == '_') {
      const std::size_t start = i;
      while (i < n && is_word(sql[i])) ++i;
      const std::string_view word(sql.data() + start, i - start);
      if (const std::string_view kw = keyword(word); !kw.empty()) {
        tok.kind = TokenKind::kKeyword;
        tok.text = kw;
        emit(kw == "TRUE" || kw == "FALSE" ? "?b" : kw);
      } else {
        tok.kind = TokenKind::kIdentifier;
        tok.text = word;
        emit(word);
      }
    } else if (is_digit(c) || (c == '-' && is_digit(peek(1)) &&
                               operand_expected(tokens))) {
      const std::size_t start = i;
      if (c == '-') ++i;  // a negative literal's sign
      bool dot = false;
      while (i < n && (is_digit(sql[i]) ||
                       (!dot && sql[i] == '.' && is_digit(peek(1))))) {
        if (sql[i] == '.') dot = true;
        ++i;
      }
      tok.kind = TokenKind::kNumber;
      tok.text.assign(sql, start, i - start);
      tok.is_integer = !dot;
      if (!tok.is_integer) {
        tok.number = std::strtod(tok.text.c_str(), nullptr);
      } else if (std::from_chars(sql.data() + start, sql.data() + i,
                                 tok.integer)
                     .ec == std::errc()) {
        tok.number = static_cast<double>(tok.integer);
      } else {
        throw ParseError(str_cat("integer literal ", tok.text,
                                 " out of range at offset ", start));
      }
      emit(tok.is_integer ? "?i" : "?d");
    } else if (c == '\'') {
      ++i;
      bool closed = false;
      for (std::size_t quote; (quote = sql.find('\'', i)) != std::string::npos;) {
        tok.text.append(sql, i, quote - i);
        i = quote + 1;
        if (peek(0) != '\'') {
          closed = true;
          break;
        }
        tok.text += '\'';  // '' escape
        ++i;
      }
      if (!closed) {
        throw ParseError(str_cat("unterminated string literal at offset ",
                                 tok.offset));
      }
      tok.kind = TokenKind::kString;
      if (is_date_text(tokens, tokens.size() - 1)) {
        shape.resize(piece);  // DATE '...' is one literal
        shape += "?D";
      } else {
        emit("?s");
      }
    } else {
      // Multi-char symbols first.
      const char next = peek(1);
      const bool pair = (c == '<' && (next == '>' || next == '=')) ||
                        (c == '!' && next == '=') ||
                        (c == '>' && next == '=');
      if (!pair && std::string_view(",.()=<>*").find(c) ==
                       std::string_view::npos) {
        throw ParseError(str_cat("unexpected character '", c,
                                 "' at offset ", i));
      }
      tok.kind = TokenKind::kSymbol;
      tok.text.assign(sql, i, pair ? 2 : 1);
      i += tok.text.size();
      emit(tok.text);
    }
  }
  Token& end = tokens.emplace_back();
  end.kind = TokenKind::kEnd;
  end.offset = n;
  return out;
}

std::vector<Token> tokenize(const std::string& sql) {
  return lex(sql).tokens;
}

}  // namespace mvd
