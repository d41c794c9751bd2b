#include "query/executor.h"

#include <algorithm>
#include <sstream>

#include "cache/cached_cube.h"
#include "common/table_printer.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/trace.h"
#include "olap/rollup.h"
#include "query/parser.h"

namespace ddc {

namespace {

obs::Histogram& ExecNsHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram("query.exec.ns");
  return hist;
}

obs::Histogram& ResultRowsHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram("query.result.rows");
  return hist;
}

obs::Histogram& WriteMutationsHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram("query.write.mutations");
  return hist;
}

// Aligned group slices of `box` along the GROUP BY dimension — the per-row
// boxes a grouped query resolves. A query with no GROUP BY is one slice
// (the box itself). Shared by execution and EXPLAIN so the planned and
// executed decompositions always agree.
std::vector<Box> BuildSlices(const Query& query, const Box& box) {
  std::vector<Box> slices;
  if (!query.group_by.has_value()) {
    slices.push_back(box);
    return slices;
  }
  const int64_t size = query.group_by->group_size;
  const size_t ud = static_cast<size_t>(query.group_by->dim);
  auto floor_div = [](Coord a, Coord b) {
    Coord q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  };
  Coord group_start = floor_div(box.lo[ud], size) * size;
  while (group_start <= box.hi[ud]) {
    const Coord group_end = group_start + size - 1;
    Box slice = box;
    slice.lo[ud] = std::max(box.lo[ud], group_start);
    slice.hi[ud] = std::min(box.hi[ud], group_end);
    slices.push_back(std::move(slice));
    group_start = group_end + 1;
  }
  return slices;
}

QueryResultRow MakeRow(Aggregate aggregate, Coord start, Coord end,
                       int64_t sum, int64_t count) {
  QueryResultRow row;
  row.group_start = start;
  row.group_end = end;
  row.sum = sum;
  row.count = count;
  switch (aggregate) {
    case Aggregate::kSum:
      row.value = static_cast<double>(sum);
      break;
    case Aggregate::kCount:
      row.value = static_cast<double>(count);
      break;
    case Aggregate::kAvg:
      if (count > 0) {
        row.value = static_cast<double>(sum) / static_cast<double>(count);
      }
      break;
  }
  return row;
}

}  // namespace

bool QueryBox(const Query& query, const CubeInterface& cube, Box* box,
              std::string* error) {
  const int dims = cube.dims();
  box->lo = cube.DomainLo();
  box->hi = cube.DomainHi();
  for (const Predicate& pred : query.predicates) {
    if (pred.dim < 0 || pred.dim >= dims) {
      *error = "query references d" + std::to_string(pred.dim) +
               " but the cube has " + std::to_string(dims) + " dimensions";
      return false;
    }
    size_t ud = static_cast<size_t>(pred.dim);
    box->lo[ud] = std::max(box->lo[ud], pred.lo);
    box->hi[ud] = std::min(box->hi[ud], pred.hi);
  }
  if (query.group_by.has_value() &&
      (query.group_by->dim < 0 || query.group_by->dim >= dims)) {
    *error = "GROUP BY references d" + std::to_string(query.group_by->dim) +
             " but the cube has " + std::to_string(dims) + " dimensions";
    return false;
  }
  return true;
}

QueryResult ExecuteQuery(const Query& query, const MeasureCube& cube) {
  QueryResult result;
  obs::TraceSpan span("query.execute", 0, 0, &ExecNsHist());
  result.aggregate = query.aggregate;
  Box box;
  if (!QueryBox(query, cube.sum_cube(), &box, &result.error)) return result;
  if (box.IsEmpty()) {
    result.ok = true;  // Legal query over an empty region: no rows.
    return result;
  }

  if (!query.group_by.has_value()) {
    result.rows.push_back(MakeRow(query.aggregate, box.lo[0], box.hi[0],
                                  cube.RangeSum(box), cube.RangeCount(box)));
    result.ok = true;
    return result;
  }

  const std::vector<RollupRow> groups =
      GroupBy(cube, box, query.group_by->dim, query.group_by->group_size);
  result.rows.reserve(groups.size());
  for (const RollupRow& group : groups) {
    result.rows.push_back(MakeRow(query.aggregate, group.group_start,
                                  group.group_end, group.sum, group.count));
  }
  if (obs::Enabled()) {
    ResultRowsHist().Record(static_cast<int64_t>(result.rows.size()));
    span.set_arg0(static_cast<int64_t>(result.rows.size()));
  }
  result.ok = true;
  return result;
}

QueryResult ExecuteQuery(const Query& query, const CubeInterface& cube) {
  QueryResult result;
  obs::TraceSpan span("query.execute", 0, 0, &ExecNsHist());
  result.aggregate = query.aggregate;
  if (query.aggregate != Aggregate::kSum) {
    result.error = "this cube stores sums only; COUNT/AVG need a MeasureCube";
    return result;
  }
  Box box;
  if (!QueryBox(query, cube, &box, &result.error)) return result;
  if (box.IsEmpty()) {
    result.ok = true;
    return result;
  }
  // One batched call for the whole report, grouped or not: adjacent group
  // slices share corner prefix sums, which RangeSumBatch deduplicates, and
  // an ungrouped query is simply a one-slice batch — so every executor read
  // pays (and accounts) the same corner-decomposition path.
  const std::vector<Box> slices = BuildSlices(query, box);
  std::vector<int64_t> sums(slices.size());
  cube.RangeSumBatch(slices, sums);
  result.rows.reserve(slices.size());
  const size_t ud = query.group_by.has_value()
                        ? static_cast<size_t>(query.group_by->dim)
                        : 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    result.rows.push_back(MakeRow(Aggregate::kSum, slices[i].lo[ud],
                                  slices[i].hi[ud], sums[i], 0));
  }
  if (obs::Enabled()) {
    ResultRowsHist().Record(static_cast<int64_t>(result.rows.size()));
    span.set_arg0(static_cast<int64_t>(result.rows.size()));
  }
  result.ok = true;
  return result;
}

QueryResult ExecuteWrite(const WriteStatement& write, CubeInterface* cube) {
  QueryResult result;
  result.is_write = true;
  obs::TraceSpan span("query.write",
                      static_cast<int64_t>(write.mutations.size()));
  // Validate up front so the error can name the offending arity; ApplyBatch
  // itself rejects malformed batches too (second check below), so either
  // way a bad statement is an error result, never an abort.
  const size_t d = static_cast<size_t>(cube->dims());
  for (const Mutation& m : write.mutations) {
    if (m.cell.size() != d) {
      result.error = "write target has " + std::to_string(m.cell.size()) +
                     " coordinates but the cube has " + std::to_string(d) +
                     " dimensions";
      return result;
    }
    if (m.is_range() && m.hi.size() != d) {
      result.error = "range write's high corner has " +
                     std::to_string(m.hi.size()) +
                     " coordinates but the cube has " + std::to_string(d) +
                     " dimensions";
      return result;
    }
  }
  if (!cube->ApplyBatch(write.mutations)) {
    result.error = "malformed write batch rejected by the cube";
    return result;
  }
  result.mutations_applied = static_cast<int64_t>(write.mutations.size());
  if (obs::Enabled()) WriteMutationsHist().Record(result.mutations_applied);
  result.ok = true;
  return result;
}

namespace {

// Parses `text` as a read query; on failure sets result->error.
std::optional<Query> ParseForRun(const std::string& text,
                                 QueryResult* result) {
  std::string error;
  std::optional<Query> query = ParseQuery(text, &error);
  if (!query.has_value()) result->error = "parse error: " + error;
  return query;
}

}  // namespace

QueryResult RunQuery(const std::string& text, const MeasureCube& cube) {
  QueryResult result;
  const std::optional<Query> query = ParseForRun(text, &result);
  return query.has_value() ? ExecuteQuery(*query, cube) : result;
}

QueryResult RunQuery(const std::string& text, const CubeInterface& cube) {
  QueryResult result;
  const std::optional<Query> query = ParseForRun(text, &result);
  return query.has_value() ? ExecuteQuery(*query, cube) : result;
}


namespace {

// Appends the executed-cost section of EXPLAIN ANALYZE. Every count is the
// ledger's exact value — the numbers a differential test can equate with
// the metrics-registry deltas for the same statement.
void AppendLedger(const obs::CostLedger& ledger, std::ostream& os) {
  os << "executed:\n"
     << "  nodes visited: " << ledger.nodes_visited << "\n"
     << "  values read: " << ledger.values_read << "\n"
     << "  values written: " << ledger.values_written << "\n"
     << "  face lookups: " << ledger.face_lookups << "\n"
     << "  corner terms: " << ledger.corner_terms << "\n"
     << "  corners deduped: " << ledger.corners_deduped << "\n"
     << "  unique corners: " << ledger.unique_corners << "\n"
     << "  overlay trees: " << ledger.overlay_terms << "\n"
     << "  overlay journal boxes: " << ledger.overlay_journal_boxes << "\n"
     << "  tree depth: " << ledger.tree_depth << "\n"
     << "  shard groups: " << ledger.shard_groups << "\n"
     << "  shard subqueries: " << ledger.shard_subqueries << "\n";
  if (ledger.cache_probes > 0) {
    // Only cache-enabled execution probes; bare cubes keep the golden
    // EXPLAIN ANALYZE output unchanged.
    os << "  cache probes: " << ledger.cache_probes << "\n"
       << "  cache hits: " << ledger.cache_hits << "\n";
  }
  os << "timing:\n"
     << "  parse ns: " << ledger.parse_ns << "\n"
     << "  plan ns: " << ledger.plan_ns << "\n"
     << "  exec ns: " << ledger.exec_ns << "\n";
}

// Renders the write half of EXPLAIN — pure planning (the same common/mutation.h fold ApplyBatch
// uses); nothing is applied. Returns false with result->error set on an
// arity mismatch.
bool AppendWritePlan(const WriteStatement& write, int dims, bool analyze,
                     std::ostream& os, QueryResult* result) {
  const bool is_set = !write.mutations.empty() &&
                      (write.mutations.front().kind == MutationKind::kSet ||
                       write.mutations.front().kind == MutationKind::kRangeSet);
  os << "kind: write (" << (is_set ? "SET" : "ADD") << ")\n";
  int64_t points = 0;
  int64_t ranges = 0;
  for (const Mutation& m : write.mutations) {
    if (m.cell.size() != static_cast<size_t>(dims) ||
        (m.is_range() && m.hi.size() != static_cast<size_t>(dims))) {
      result->error = "write target arity does not match cube dims=" +
                      std::to_string(dims);
      return false;
    }
    ++(m.is_range() ? ranges : points);
  }
  // Plan the coalesce program the executed batch would run (the same
  // common/mutation.h fold ApplyBatch uses); nothing is applied.
  int64_t steps = 0;
  int64_t coalesced_cells = 0;
  int64_t barriers = 0;
  for (const CoalescedStep& step : BuildCoalesceProgram(write.mutations)) {
    ++steps;
    coalesced_cells += static_cast<int64_t>(step.points.size());
    if (step.has_range) ++barriers;
  }
  os << "plan:\n"
     << "  mutations: " << write.mutations.size() << " (points: " << points
     << ", ranges: " << ranges << ")\n"
     << "  coalesce steps: " << steps << "\n"
     << "  coalesced point cells: " << coalesced_cells << "\n"
     << "  range barriers: " << barriers << "\n";
  os << "note: writes are planned only; EXPLAIN" << (analyze ? " ANALYZE" : "")
     << " does not mutate the cube\n";
  return true;
}

}  // namespace

QueryResult ExplainStatement(const Statement& statement,
                             const CubeInterface& cube, int64_t parse_ns) {
  QueryResult result;
  result.is_explain = true;
  const bool analyze = statement.explain == ExplainMode::kAnalyze;
  const uint64_t plan_start = obs::NowNanos();
  Statement inner = statement;
  inner.explain = ExplainMode::kNone;

  std::ostringstream os;
  os << (analyze ? "EXPLAIN ANALYZE\n" : "EXPLAIN\n");
  os << "statement: " << StatementToString(inner) << "\n";
  os << "cube: " << cube.name() << " dims=" << cube.dims()
     << " domain=" << CellToString(cube.DomainLo()) << ".."
     << CellToString(cube.DomainHi()) << "\n";

  if (statement.query.has_value()) {
    const Query& query = *statement.query;
    result.aggregate = query.aggregate;
    os << "kind: read (" << AggregateName(query.aggregate) << ")\n";
    if (query.aggregate != Aggregate::kSum) {
      result.error =
          "this cube stores sums only; COUNT/AVG need a MeasureCube";
      return result;
    }
    Box box;
    if (!QueryBox(query, cube, &box, &result.error)) return result;
    std::vector<Box> slices;
    if (!box.IsEmpty()) slices = BuildSlices(query, box);
    os << "plan:\n"
       << "  rows: " << slices.size() << "\n";
    cube.ExplainPlan(slices, os);
    if (analyze) {
      obs::CostLedger ledger;
      QueryResult executed;
      const uint64_t exec_start = obs::NowNanos();
      {
        obs::ScopedCostLedger scope(&ledger);
        // An explained statement must never populate a cache: probes are
        // counted (the ledger lines below) but misses are discarded.
        CachedCube::ScopedNoPopulate no_populate;
        executed = ExecuteQuery(query, cube);
      }
      ledger.exec_ns = static_cast<int64_t>(obs::NowNanos() - exec_start);
      ledger.parse_ns = parse_ns;
      ledger.plan_ns = static_cast<int64_t>(exec_start - plan_start);
      if (!executed.ok) {
        result.error = executed.error;
        return result;
      }
      AppendLedger(ledger, os);
      os << "result rows: " << executed.rows.size() << "\n";
    }
  } else if (statement.write.has_value()) {
    if (!AppendWritePlan(*statement.write, cube.dims(), analyze, os,
                         &result)) {
      return result;
    }
  } else {
    result.error = "empty statement";
    return result;
  }

  result.explain_text = os.str();
  result.ok = true;
  return result;
}

QueryResult RunStatement(const std::string& text, CubeInterface* cube) {
  const uint64_t parse_start = obs::NowNanos();
  std::string error;
  const std::optional<Statement> statement = ParseStatement(text, &error);
  if (!statement.has_value()) {
    QueryResult result;
    result.error = "parse error: " + error;
    return result;
  }
  const int64_t parse_ns =
      static_cast<int64_t>(obs::NowNanos() - parse_start);

  if (statement->explain != ExplainMode::kNone) {
    QueryResult result = ExplainStatement(*statement, *cube, parse_ns);
    if (obs::Enabled()) {
      obs::FlightRecord record;
      record.kind = obs::FlightRecorder::kKindExplain;
      record.statement_hash = obs::HashStatement(text.data(), text.size());
      record.duration_ns =
          static_cast<int64_t>(obs::NowNanos() - parse_start);
      record.arg = result.ok ? 1 : 0;
      obs::FlightRecorder::Default().Record(record);
    }
    return result;
  }

  if (!obs::Enabled()) {
    // Zero-instrumentation path: no ledger, no flight record.
    if (statement->write.has_value()) {
      return ExecuteWrite(*statement->write, cube);
    }
    return ExecuteQuery(*statement->query, *cube);
  }

  obs::CostLedger ledger;
  QueryResult result;
  {
    obs::ScopedCostLedger scope(&ledger);
    result = statement->write.has_value()
                 ? ExecuteWrite(*statement->write, cube)
                 : ExecuteQuery(*statement->query, *cube);
  }
  obs::FlightRecord record;
  record.kind = statement->write.has_value()
                    ? obs::FlightRecorder::kKindWrite
                    : obs::FlightRecorder::kKindRead;
  record.statement_hash = obs::HashStatement(text.data(), text.size());
  record.nodes_visited = ledger.nodes_visited;
  record.values_read = ledger.values_read;
  record.values_written = ledger.values_written;
  record.corner_terms = ledger.corner_terms;
  record.duration_ns = static_cast<int64_t>(obs::NowNanos() - parse_start);
  record.arg = result.is_write ? result.mutations_applied
                               : static_cast<int64_t>(result.rows.size());
  obs::FlightRecorder::Default().Record(record);
  return result;
}

std::string FormatResult(const QueryResult& result) {
  if (!result.ok) return "error: " + result.error + "\n";
  if (result.is_explain) return result.explain_text;
  if (result.is_write) {
    return "applied " + std::to_string(result.mutations_applied) +
           " mutation" + (result.mutations_applied == 1 ? "" : "s") + "\n";
  }
  TablePrinter table({"group", AggregateName(result.aggregate)});
  for (const QueryResultRow& row : result.rows) {
    std::string group =
        (row.group_start == row.group_end)
            ? std::to_string(row.group_start)
            : "[" + std::to_string(row.group_start) + ", " +
                  std::to_string(row.group_end) + "]";
    std::string value = "-";
    if (row.value.has_value()) {
      value = (result.aggregate == Aggregate::kAvg)
                  ? TablePrinter::FormatDouble(*row.value, 3)
                  : TablePrinter::FormatInt(static_cast<int64_t>(*row.value));
    }
    table.AddRow({group, value});
  }
  return table.ToString();
}

}  // namespace ddc
