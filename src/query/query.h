// A minimal range-aggregate query language over data cubes.
//
// Grammar (case-insensitive keywords, whitespace-separated):
//
//   statement := ("EXPLAIN" "ANALYZE"?)? (query | write)
//   query     := aggregate groupby? where?
//   aggregate := "SUM" | "COUNT" | "AVG"
//   groupby   := "GROUP" "BY" dim ("SIZE" int)?        -- default SIZE 1
//   where     := "WHERE" pred ("AND" pred)*
//   pred      := dim "IN" "[" int "," int "]"
//              | dim "=" int
//   dim       := "d" digits                            -- d0, d1, ... d19
//   write     := ("ADD" | "SET") target ("," target)*
//   target    := "AT" "[" int ("," int)* "]" "=" int
//              | int "IN" "[" int ("," int)* ".." int ("," int)* "]"
//
// Examples:
//   SUM WHERE d0 IN [27, 45] AND d1 IN [220, 222]
//   AVG GROUP BY d1 SIZE 7 WHERE d0 = 3
//   COUNT
//   ADD AT [3, 4] = 10, AT [5, 6] = -2
//   SET AT [0, 0] = 100
//   ADD 5 IN [0, 0 .. 9, 9]
//   SET 0 IN [3, 3 .. 5, 5], AT [4, 4] = 7
//   EXPLAIN SUM GROUP BY d0 WHERE d1 IN [0, 7]
//   EXPLAIN ANALYZE SUM WHERE d0 IN [2, 9]
//
// EXPLAIN prints the planned decomposition of the inner statement without
// mutating anything; EXPLAIN ANALYZE additionally executes a *read*
// statement and reports its exact measured costs (writes are still only
// planned — an EXPLAIN never changes cube state). See DESIGN.md §14.
//
// Dimensions without a predicate span the cube's whole domain. Repeated
// predicates on one dimension intersect. The language is deliberately tiny:
// every query maps to range aggregates (one per group), which is exactly
// what the underlying structures serve in polylog time. A write statement
// maps to exactly one MutationBatch: point targets carry the verb's point
// kind (ADD → kAdd, SET → kSet), range targets its range kind (kRangeAdd /
// kRangeSet), and the whole list lands through a single ApplyBatch call
// (one tree-ordered AddBatch for the point runs; one WAL record when the
// target is durable). A range target's corners must agree in arity; inverted
// bounds (lo > hi anywhere) denote the empty box and write nothing.

#ifndef DDC_QUERY_QUERY_H_
#define DDC_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cell.h"
#include "common/mutation.h"

namespace ddc {

enum class Aggregate { kSum, kCount, kAvg };

struct Predicate {
  int dim = 0;
  Coord lo = 0;
  Coord hi = 0;
};

struct GroupBySpec {
  int dim = 0;
  int64_t group_size = 1;
};

struct Query {
  Aggregate aggregate = Aggregate::kSum;
  std::optional<GroupBySpec> group_by;
  std::vector<Predicate> predicates;
};

// A batched write statement: every target carries the statement's verb
// (points as kAdd/kSet, ranges as kRangeAdd/kRangeSet) and the whole list
// is applied through one ApplyBatch call, in order.
struct WriteStatement {
  MutationBatch mutations;
};

// Introspection prefix of a statement: plain execution, EXPLAIN (plan
// only), or EXPLAIN ANALYZE (plan + measured execution; reads only).
enum class ExplainMode { kNone, kPlan, kAnalyze };

// A parsed statement: exactly one of `query` (a read) or `write` is set.
struct Statement {
  std::optional<Query> query;
  std::optional<WriteStatement> write;
  ExplainMode explain = ExplainMode::kNone;
};

// Renders a query back to its canonical text (for diagnostics and tests).
std::string QueryToString(const Query& query);

// Renders a write statement back to its canonical text. Parseable write
// statements (one verb for every point) round-trip exactly; a hand-built
// mixed-kind batch renders the first mutation's verb.
std::string WriteToString(const WriteStatement& write);

// Canonical text for either kind of statement (empty for an empty one).
std::string StatementToString(const Statement& statement);

const char* AggregateName(Aggregate aggregate);

}  // namespace ddc

#endif  // DDC_QUERY_QUERY_H_
