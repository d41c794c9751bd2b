// Executor for parsed queries (query.h) against cube structures.
//
// A query compiles to one box per result row: the WHERE predicates pin the
// box (unconstrained dimensions span the full domain); GROUP BY splits it
// along one dimension into aligned groups. Each row is served by range
// aggregates on the underlying structure — polylog per row on a Dynamic
// Data Cube.
//
// Every entry point takes the common CubeInterface, so one code path
// serves a bare DynamicDataCube, a CachedCube over it, a ShardedCube and
// any stack composed of them. Only COUNT/AVG need the MeasureCube
// overloads, because a CubeInterface stores sums only.

#ifndef DDC_QUERY_EXECUTOR_H_
#define DDC_QUERY_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cube_interface.h"
#include "common/range.h"
#include "olap/measure.h"
#include "query/query.h"

namespace ddc {

struct QueryResultRow {
  // Group interval along the grouped dimension (whole box when the query
  // has no GROUP BY; then group_start/end are the box bounds of dim 0).
  Coord group_start = 0;
  Coord group_end = 0;
  // Populated per the aggregate: sum and count always, value is the
  // aggregate's headline number (AVG may be empty on zero-count groups).
  int64_t sum = 0;
  int64_t count = 0;
  std::optional<double> value;
};

struct QueryResult {
  bool ok = false;
  std::string error;  // Set when !ok.
  Aggregate aggregate = Aggregate::kSum;
  std::vector<QueryResultRow> rows;
  // Write statements only: true, with the number of mutations applied
  // (rows stays empty).
  bool is_write = false;
  int64_t mutations_applied = 0;
  // EXPLAIN [ANALYZE] statements only: the rendered plan (rows stays
  // empty; an EXPLAIN never mutates the cube).
  bool is_explain = false;
  std::string explain_text;
};

// Executes against a MeasureCube (supports SUM, COUNT and AVG).
QueryResult ExecuteQuery(const Query& query, const MeasureCube& cube);

// Executes against any cube (SUM only; COUNT/AVG produce an error result
// because the cube carries no observation counts). Every row box goes to
// ONE RangeSumBatch call: a DynamicDataCube dedups the corners adjacent
// group slices share, and a CachedCube serves repeated reports from cache
// while its misses still go to the backing cube as one batched call.
QueryResult ExecuteQuery(const Query& query, const CubeInterface& cube);

// Applies a write statement through the cube's batched write path: the
// whole statement is ONE ApplyBatch call (one coalesced AddBatch on a DDC).
// Cells whose dimensionality doesn't match the cube produce an error
// result without touching the cube.
QueryResult ExecuteWrite(const WriteStatement& write, CubeInterface* cube);

// Convenience: parse + execute.
QueryResult RunQuery(const std::string& text, const MeasureCube& cube);
QueryResult RunQuery(const std::string& text, const CubeInterface& cube);

// Parses and runs a full statement — a read query or an ADD/SET write —
// against one cube. Writes land through ExecuteWrite (batched); reads
// behave exactly like RunQuery. EXPLAIN-prefixed statements route through
// ExplainStatement and never mutate the cube. With observability enabled,
// every executed statement also installs a per-operation cost ledger and
// appends one record to the flight recorder (obs/flight_recorder.h).
QueryResult RunStatement(const std::string& text, CubeInterface* cube);

// Computes the box a read query targets over the cube's current domain
// (predicates intersected; no GROUP BY split). Exposed for tools that want
// the planned geometry without executing. Returns false with *error on a
// bad dimension reference.
bool QueryBox(const Query& query, const CubeInterface& cube, Box* box,
              std::string* error);

// Renders the EXPLAIN [ANALYZE] plan for a parsed statement. The header
// names the cube stack (`cube: <name()> dims=... domain=...`). Reads print
// the per-row plan each layer contributes through
// CubeInterface::ExplainPlan — a CachedCube its cache line, a
// DynamicDataCube its corner decomposition — and, under ANALYZE, execute
// and report exact ledger costs. ANALYZE runs under
// CachedCube::ScopedNoPopulate, so an explained statement never inserts
// into a cache (its probes are still counted). Writes print the
// coalesce-program shape only: an EXPLAIN never mutates the cube, even
// with ANALYZE. `parse_ns` (optional) is echoed into the timing section.
QueryResult ExplainStatement(const Statement& statement,
                             const CubeInterface& cube, int64_t parse_ns = 0);

// Renders a result as a fixed-width table (one line per row).
std::string FormatResult(const QueryResult& result);

}  // namespace ddc

#endif  // DDC_QUERY_EXECUTOR_H_
