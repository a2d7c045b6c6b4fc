// Recursive-descent parser for the SQL subset used by warehouse queries:
//
//   SELECT item [, item]* FROM rel [, rel]*
//     [WHERE predicate] [GROUP BY col [, col]*]
//
// where an item is a column or an aggregate COUNT/SUM/MIN/MAX/AVG over a
// column (or * for COUNT), optionally AS-aliased; predicates are built
// from comparisons over columns and literals (numbers, 'strings',
// DATE 'YYYY-MM-DD', TRUE/FALSE) combined with AND / OR / NOT and
// parentheses. `SELECT *` expands at bind time.
//
// The parser produces an *unbound* ParsedQuery; parse_and_bind() combines
// parsing with QuerySpec::bind against a catalog.
#pragma once

#include <string>
#include <vector>

#include "src/algebra/expr.hpp"
#include "src/algebra/query_spec.hpp"

namespace mvd {

struct ParsedQuery {
  std::vector<std::string> select_list;  // possibly-qualified names; "*" alone
  std::vector<AggSpec> aggregates;       // aggregate SELECT items, in order
  std::vector<std::string> group_by;     // GROUP BY columns
  std::vector<std::string> relations;
  ExprPtr where;  // nullptr when absent
};

/// Deepest NOT / parenthesis nesting a predicate may use; deeper input
/// raises ParseError rather than recursing without bound.
inline constexpr std::size_t kMaxPredicateNesting = 256;

/// Parse SQL text. Throws ParseError with offset context on bad input.
ParsedQuery parse_query(const std::string& sql);

/// Parse a standalone predicate (the WHERE grammar), e.g. for tests and
/// for building selection conditions programmatically from text.
ExprPtr parse_predicate(const std::string& text);

/// parse_query + QuerySpec::bind. `SELECT *` expands to every column of
/// every FROM relation (in schema order).
QuerySpec parse_and_bind(const Catalog& catalog, const std::string& name,
                         double frequency, const std::string& sql);

/// Ad-hoc binding for serving front doors (mvserve): like parse_and_bind
/// but with a generated name ("adhoc-<n>", process-unique) and unit
/// frequency — ad-hoc queries are not part of a designed workload, so
/// their names never collide with registered query roots.
QuerySpec parse_adhoc(const Catalog& catalog, const std::string& sql);

}  // namespace mvd
