#include "query/executor.h"
#include "query/parser.h"

#include <gtest/gtest.h>

#include "common/workload.h"

namespace ddc {
namespace {

// ---------- Parser ----------

TEST(QueryParserTest, ParsesSimpleAggregates) {
  std::string error;
  auto q = ParseQuery("SUM", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->aggregate, Aggregate::kSum);
  EXPECT_FALSE(q->group_by.has_value());
  EXPECT_TRUE(q->predicates.empty());

  q = ParseQuery("count", &error);  // Case-insensitive.
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->aggregate, Aggregate::kCount);

  q = ParseQuery("AVERAGE", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->aggregate, Aggregate::kAvg);
}

TEST(QueryParserTest, ParsesPredicates) {
  std::string error;
  auto q = ParseQuery("SUM WHERE d0 IN [27, 45] AND d1 IN [220,222]", &error);
  ASSERT_TRUE(q.has_value()) << error;
  ASSERT_EQ(q->predicates.size(), 2u);
  EXPECT_EQ(q->predicates[0].dim, 0);
  EXPECT_EQ(q->predicates[0].lo, 27);
  EXPECT_EQ(q->predicates[0].hi, 45);
  EXPECT_EQ(q->predicates[1].dim, 1);
  EXPECT_EQ(q->predicates[1].lo, 220);

  q = ParseQuery("SUM WHERE d2 = -7", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->predicates[0].dim, 2);
  EXPECT_EQ(q->predicates[0].lo, -7);
  EXPECT_EQ(q->predicates[0].hi, -7);
}

TEST(QueryParserTest, ParsesGroupBy) {
  std::string error;
  auto q = ParseQuery("AVG GROUP BY d1 SIZE 7 WHERE d0 = 3", &error);
  ASSERT_TRUE(q.has_value()) << error;
  ASSERT_TRUE(q->group_by.has_value());
  EXPECT_EQ(q->group_by->dim, 1);
  EXPECT_EQ(q->group_by->group_size, 7);

  q = ParseQuery("COUNT GROUP BY d0", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->group_by->group_size, 1);
}

TEST(QueryParserTest, RoundTripsThroughToString) {
  std::string error;
  const char* texts[] = {
      "SUM",
      "COUNT GROUP BY d0",
      "AVG GROUP BY d1 SIZE 7 WHERE d0 = 3",
      "SUM WHERE d0 IN [1, 5] AND d1 = 2",
  };
  for (const char* text : texts) {
    auto q = ParseQuery(text, &error);
    ASSERT_TRUE(q.has_value()) << text << ": " << error;
    auto q2 = ParseQuery(QueryToString(*q), &error);
    ASSERT_TRUE(q2.has_value()) << QueryToString(*q) << ": " << error;
    EXPECT_EQ(QueryToString(*q), QueryToString(*q2));
  }
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  std::string error;
  EXPECT_FALSE(ParseQuery("", &error).has_value());
  EXPECT_FALSE(ParseQuery("FROBNICATE", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE d0", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE d0 IN [5, 1]", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE d0 IN [1 2]", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE x0 = 1", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM GROUP d0", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM GROUP BY d0 SIZE 0", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM trailing", &error).has_value());
  EXPECT_FALSE(ParseQuery("SUM WHERE d0 = 1 OR d1 = 2", &error).has_value());
  // Errors carry positions.
  ParseQuery("SUM WHERE d0 IN [5, 1]", &error);
  EXPECT_NE(error.find("near byte"), std::string::npos);
}

// Integer literals at the int64 limits parse; one past either limit is an
// error at the literal's byte offset (strtoll would saturate it silently).
TEST(QueryParserTest, RejectsOutOfRangeIntegers) {
  const std::string kMax = "9223372036854775807";
  const std::string kMin = "-9223372036854775808";
  const std::string kPastMax = "9223372036854775808";
  const std::string kPastMin = "-9223372036854775809";
  std::string error;

  // A delta.
  auto st = ParseStatement("ADD AT [1, 2] = " + kMax, &error);
  ASSERT_TRUE(st.has_value()) << error;
  EXPECT_EQ(st->write->mutations[0].delta, INT64_MAX);
  st = ParseStatement("ADD AT [1, 2] = " + kMin, &error);
  ASSERT_TRUE(st.has_value()) << error;
  EXPECT_EQ(st->write->mutations[0].delta, INT64_MIN);
  EXPECT_FALSE(ParseStatement("ADD AT [1, 2] = " + kPastMax, &error));
  EXPECT_EQ(error, "integer out of range (near byte 16)");
  EXPECT_FALSE(ParseStatement("ADD AT [1, 2] = " + kPastMin, &error));
  EXPECT_EQ(error, "integer out of range (near byte 16)");
  EXPECT_FALSE(
      ParseStatement("ADD AT [1, 2] = 99999999999999999999", &error));
  EXPECT_EQ(error, "integer out of range (near byte 16)");

  // A coordinate.
  st = ParseStatement("ADD AT [" + kMin + ", " + kMax + "] = 1", &error);
  ASSERT_TRUE(st.has_value()) << error;
  EXPECT_EQ(st->write->mutations[0].cell, (Cell{INT64_MIN, INT64_MAX}));
  EXPECT_FALSE(ParseStatement("ADD AT [1, " + kPastMax + "] = 1", &error));
  EXPECT_EQ(error, "integer out of range (near byte 11)");
  EXPECT_FALSE(ParseStatement("ADD AT [" + kPastMin + ", 1] = 1", &error));
  EXPECT_EQ(error, "integer out of range (near byte 8)");

  // A range bound.
  auto q = ParseQuery("SUM WHERE d0 IN [" + kMin + ", " + kMax + "]", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->predicates[0].lo, INT64_MIN);
  EXPECT_EQ(q->predicates[0].hi, INT64_MAX);
  EXPECT_FALSE(
      ParseQuery("SUM WHERE d0 IN [-99999999999999999999, 5]", &error));
  EXPECT_EQ(error, "integer out of range (near byte 17)");
  EXPECT_FALSE(ParseQuery("SUM WHERE d0 IN [5, " + kPastMax + "]", &error));
  EXPECT_EQ(error, "integer out of range (near byte 20)");

  // A GROUP BY size.
  q = ParseQuery("SUM GROUP BY d0 SIZE " + kMax, &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->group_by->group_size, INT64_MAX);
  EXPECT_FALSE(ParseQuery("SUM GROUP BY d0 SIZE " + kPastMax, &error));
  EXPECT_EQ(error, "integer out of range (near byte 21)");
  EXPECT_FALSE(ParseQuery("SUM GROUP BY d0 SIZE " + kMin, &error));
  EXPECT_NE(error.find("SIZE must be >= 1"), std::string::npos);
  EXPECT_FALSE(ParseQuery("SUM GROUP BY d0 SIZE " + kPastMin, &error));
  EXPECT_EQ(error, "integer out of range (near byte 21)");
}

// ---------- Conformance corpus ----------
//
// Every form the grammar accepts, checked through its canonical rendering,
// and every rejection, checked by its exact message and byte offset. A
// failure is reported at the token after the one that failed; at end of
// input that is the start of the last token (byte 0 for empty input).

struct ParseCase {
  const char* text;
  const char* expect;  // Canonical text if accepted, else the exact error.
};

const ParseCase kAcceptedStatements[] = {
    {"sum", "SUM"},
    {"Sum Where D0 In [1, 2] And d1 = 3", "SUM WHERE d0 IN [1, 2] AND d1 = 3"},
    {"count group by d1 size 4 where d0 in [0,9]",
     "COUNT GROUP BY d1 SIZE 4 WHERE d0 IN [0, 9]"},
    {"average", "AVG"},
    {"aVg GrOuP bY D0", "AVG GROUP BY d0"},
    {"SUM\tWHERE\td0\tIN\t[1,\t2]", "SUM WHERE d0 IN [1, 2]"},
    {" \n SUM WHERE d1 = 4 \r\n", "SUM WHERE d1 = 4"},
    {"SUM WHERE d0 IN[1,2]AND d1=2", "SUM WHERE d0 IN [1, 2] AND d1 = 2"},
    {"SUM WHERE d0 IN [+3, +7]", "SUM WHERE d0 IN [3, 7]"},
    {"SUM WHERE d0 = +0", "SUM WHERE d0 = 0"},
    {"SUM WHERE d0 IN [-5, -5]", "SUM WHERE d0 = -5"},
    {"SUM WHERE d19 = 1 AND D007 = 2", "SUM WHERE d19 = 1 AND d7 = 2"},
    {"SUM GROUP BY d0 SIZE 1 WHERE d0 = 00", "SUM GROUP BY d0 WHERE d0 = 0"},
    {"SUM GROUP BY d0 SIZE +9223372036854775807",
     "SUM GROUP BY d0 SIZE 9223372036854775807"},
    {"SUM WHERE d0 IN [-9223372036854775808, 9223372036854775807]",
     "SUM WHERE d0 IN [-9223372036854775808, 9223372036854775807]"},
    {"add at [1, 2] = 3", "ADD AT [1, 2] = 3"},
    {"Add At [1,2]=3,at[4,5]=-6", "ADD AT [1, 2] = 3, AT [4, 5] = -6"},
    {"set at [0] = +9", "SET AT [0] = 9"},
    {"ADD 5 IN [3..7]", "ADD 5 IN [3 .. 7]"},
    {"ADD 5 IN [3 .. 7]", "ADD 5 IN [3 .. 7]"},
    {"add +5 in [3,4..7,8]", "ADD 5 IN [3, 4 .. 7, 8]"},
    {"SET -2 in [0, 0 .. 9, 9], AT [4, 4] = 7",
     "SET -2 IN [0, 0 .. 9, 9], AT [4, 4] = 7"},
    {"ADD 1 IN [5 .. 3]", "ADD 1 IN [5 .. 3]"},
    {"ADD\tAT\t[1,\t2]\t=\t3", "ADD AT [1, 2] = 3"},
    {"ADD AT [1, 2, 3] = 1, 2 IN [0, 0, 0 .. 1, 1, 1]",
     "ADD AT [1, 2, 3] = 1, 2 IN [0, 0, 0 .. 1, 1, 1]"},
    // The parser does not check arity across targets; the executor does.
    {"ADD AT [1] = 1, AT [1, 2] = 2", "ADD AT [1] = 1, AT [1, 2] = 2"},
    {"ADD AT [-9223372036854775808, +9223372036854775807] = "
     "9223372036854775807",
     "ADD AT [-9223372036854775808, 9223372036854775807] = "
     "9223372036854775807"},
    {"SET -9223372036854775808 IN [0 .. 9223372036854775807]",
     "SET -9223372036854775808 IN [0 .. 9223372036854775807]"},
    {"EXPLAIN SUM", "EXPLAIN SUM"},
    {"explain analyze sum where d0 in [1,2]",
     "EXPLAIN ANALYZE SUM WHERE d0 IN [1, 2]"},
    {"Explain add at [1] = 2", "EXPLAIN ADD AT [1] = 2"},
    {"EXPLAIN ANALYZE SET 3 IN [0..4]", "EXPLAIN ANALYZE SET 3 IN [0 .. 4]"},
    {"EXPLAIN\tANALYZE\tCOUNT", "EXPLAIN ANALYZE COUNT"},
};

const ParseCase kRejectedStatements[] = {
    // Statement head.
    {"", "expected SUM, COUNT or AVG (near byte 0)"},
    {" \t ", "expected SUM, COUNT or AVG (near byte 0)"},
    {"EXPLAIN", "expected a statement after EXPLAIN (near byte 0)"},
    {"explain analyze", "expected a statement after EXPLAIN (near byte 8)"},
    {"  EXPLAIN  ", "expected a statement after EXPLAIN (near byte 2)"},
    {"EXPLAIN EXPLAIN SUM",
     "expected SUM, COUNT or AVG, got 'EXPLAIN' (near byte 16)"},
    {"FROBNICATE", "expected SUM, COUNT or AVG, got 'FROBNICATE' (near byte 0)"},
    {"frob d0", "expected SUM, COUNT or AVG, got 'frob' (near byte 5)"},
    {"ANALYZE SUM", "expected SUM, COUNT or AVG, got 'ANALYZE' (near byte 8)"},
    // GROUP BY and dimensions.
    {"SUM GROUP", "expected BY (near byte 4)"},
    {"SUM GROUP d0", "expected BY (near byte 10)"},
    {"SUM GROUP x d0", "expected BY (near byte 12)"},
    {"SUM GROUP BY", "expected dimension (d0, d1, ...) (near byte 10)"},
    {"SUM WHERE", "expected dimension (d0, d1, ...) (near byte 4)"},
    {"SUM WHERE d0 = 1 AND", "expected dimension (d0, d1, ...) (near byte 17)"},
    {"SUM WHERE x0 = 1",
     "expected dimension (d0, d1, ...), got 'x0' (near byte 13)"},
    {"SUM WHERE d = 1",
     "expected dimension (d0, d1, ...), got 'd' (near byte 12)"},
    {"SUM GROUP BY 7",
     "expected dimension (d0, d1, ...), got '7' (near byte 13)"},
    {"SUM WHERE d20 = 1", "bad dimension 'd20' (near byte 14)"},
    {"SUM WHERE d1x = 1", "bad dimension 'd1x' (near byte 14)"},
    {"SUM WHERE dx", "bad dimension 'dx' (near byte 10)"},
    {"SUM WHERE d-1 IN [1, 2]", "bad dimension 'd-1' (near byte 14)"},
    {"SUM GROUP BY d99999999999999999999",
     "bad dimension 'd99999999999999999999' (near byte 13)"},
    {"SUM GROUP BY d0 SIZE", "expected integer (near byte 16)"},
    {"SUM GROUP BY d0 SIZE 0", "GROUP BY SIZE must be >= 1 (near byte 21)"},
    {"SUM GROUP BY d0 SIZE -3 WHERE d0 = 1",
     "GROUP BY SIZE must be >= 1 (near byte 24)"},
    // Predicates.
    {"SUM WHERE d0", "expected IN or = after dimension (near byte 10)"},
    {"SUM WHERE d0 < 3", "expected IN or =, got '<' (near byte 15)"},
    {"SUM WHERE d0 BETWEEN", "expected IN or =, got 'BETWEEN' (near byte 13)"},
    {"SUM WHERE d0 IN 1, 2]", "expected '[' (near byte 16)"},
    {"SUM WHERE d0 IN", "expected '[' (near byte 13)"},
    {"SUM WHERE d0 IN [", "expected integer (near byte 16)"},
    {"SUM WHERE d0 =", "expected integer (near byte 13)"},
    {"SUM WHERE d0 IN [1 2]", "expected ',' (near byte 19)"},
    {"SUM WHERE d0 IN [1..2]", "expected ',' (near byte 18)"},
    {"SUM WHERE d0 IN [1, 2", "expected ']' (near byte 20)"},
    {"SUM WHERE d0 IN [1, 2, 3]", "expected ']' (near byte 21)"},
    {"SUM WHERE d0 IN [5, 1]", "empty range: lo > hi (near byte 21)"},
    {"SUM WHERE d0 IN [5, 1] AND d1 = 0",
     "empty range: lo > hi (near byte 23)"},
    {"SUM WHERE d0 = 1 OR d1 = 2",
     "expected AND or end of query, got 'OR' (near byte 17)"},
    {"SUM WHERE d0 = 1 5",
     "expected AND or end of query, got '5' (near byte 17)"},
    {"SUM WHERE d0 = 1.5",
     "expected AND or end of query, got '.' (near byte 16)"},
    {"SUM trailing", "unexpected trailing token 'trailing' (near byte 4)"},
    {"SUM GROUP BY d0 junk", "unexpected trailing token 'junk' (near byte 16)"},
    {"SUM ]", "unexpected trailing token ']' (near byte 4)"},
    // Integer literals.
    {"SUM WHERE d0 = x", "expected integer, got 'x' (near byte 15)"},
    {"SUM WHERE d0 IN [a, 2]", "expected integer, got 'a' (near byte 18)"},
    {"SUM WHERE d0 = 1x", "expected integer, got '1x' (near byte 15)"},
    {"SUM WHERE d0 = +", "expected integer, got '+' (near byte 15)"},
    {"SUM WHERE d0 = -", "expected integer, got '-' (near byte 15)"},
    {"SUM WHERE d0 = +-1", "expected integer, got '+-1' (near byte 15)"},
    {"SUM WHERE d0 = ++1", "expected integer, got '++1' (near byte 15)"},
    {"SUM WHERE d0 = 0x10", "expected integer, got '0x10' (near byte 15)"},
    {"SUM WHERE d0 = 9223372036854775808", "integer out of range (near byte 15)"},
    {"SUM WHERE d0 = +9223372036854775808",
     "integer out of range (near byte 15)"},
    {"SUM WHERE d0 = 99999999999999999999x",
     "expected integer, got '99999999999999999999x' (near byte 15)"},
    // Writes.
    {"ADD", "expected AT or a range value (near byte 0)"},
    {"set", "expected AT or a range value (near byte 0)"},
    {"EXPLAIN ADD", "expected AT or a range value (near byte 8)"},
    {"ADD AT [1] = 2,", "expected AT or a range value (near byte 14)"},
    {"ADD 1", "expected 'IN' (near byte 4)"},
    {"ADD 1, AT [1] = 2", "expected 'IN' (near byte 5)"},
    {"ADD x", "expected integer, got 'x' (near byte 4)"},
    {"ADD AT", "expected '[' (near byte 4)"},
    {"ADD AT 1] = 2", "expected '[' (near byte 7)"},
    {"ADD AT [", "expected integer (near byte 7)"},
    {"ADD AT []", "expected integer, got ']' (near byte 8)"},
    {"ADD AT [1,] = 2", "expected integer, got ']' (near byte 12)"},
    {"ADD AT [1, 2 = 3", "expected ']' (near byte 13)"},
    {"ADD AT [1]", "expected '=' (near byte 9)"},
    {"ADD AT [1] 3", "expected '=' (near byte 11)"},
    {"ADD AT [1] =", "expected integer (near byte 11)"},
    {"ADD AT [1] = 9223372036854775808", "integer out of range (near byte 13)"},
    {"ADD AT [1] = 2 AT [3] = 4",
     "expected ',' or end of statement, got 'AT' (near byte 15)"},
    {"SET AT [1] = 2 junk",
     "expected ',' or end of statement, got 'junk' (near byte 15)"},
    {"ADD 5 IN", "expected '[' (near byte 6)"},
    {"ADD 5 IN [1, 2]", "expected '..' (near byte 14)"},
    {"ADD 5 IN [1 . 2]", "expected '..' (near byte 12)"},
    {"ADD 5 IN [1 ... 2]", "expected '..' (near byte 12)"},
    {"ADD 5 IN [1 ..", "expected integer (near byte 12)"},
    {"ADD 5 IN [1 .. 2", "expected ']' (near byte 15)"},
    {"ADD 5 IN [1 .. 99999999999999999999]",
     "integer out of range (near byte 15)"},
    {"ADD 5 IN [1, 2 .. 3]",
     "range corners have mismatched arity (2 vs 1 coordinates) (near byte 19)"},
    {"ADD 5 IN [1 .. 2, 3], AT [0] = 1",
     "range corners have mismatched arity (1 vs 2 coordinates) (near byte 20)"},
};

// ParseQuery reads a bare query: no EXPLAIN prefix and no writes.
const ParseCase kQueries[] = {
    {"sum where d0 = 1", "SUM WHERE d0 = 1"},
    {"", "expected SUM, COUNT or AVG (near byte 0)"},
    {"EXPLAIN SUM", "expected SUM, COUNT or AVG, got 'EXPLAIN' (near byte 8)"},
    {"ADD AT [1] = 2", "expected SUM, COUNT or AVG, got 'ADD' (near byte 4)"},
};

TEST(QueryParserConformance, AcceptedStatementsRenderCanonically) {
  for (const ParseCase& c : kAcceptedStatements) {
    std::string error;
    const std::optional<Statement> st = ParseStatement(c.text, &error);
    ASSERT_TRUE(st.has_value()) << "'" << c.text << "': " << error;
    EXPECT_EQ(StatementToString(*st), c.expect) << "'" << c.text << "'";
    // The rendering is itself accepted and renders to itself.
    const std::optional<Statement> again =
        ParseStatement(StatementToString(*st), &error);
    ASSERT_TRUE(again.has_value()) << "'" << c.expect << "': " << error;
    EXPECT_EQ(StatementToString(*again), c.expect);
  }
}

TEST(QueryParserConformance, RejectedStatementsReportExactErrors) {
  for (const ParseCase& c : kRejectedStatements) {
    std::string error;
    EXPECT_FALSE(ParseStatement(c.text, &error).has_value())
        << "'" << c.text << "'";
    EXPECT_EQ(error, c.expect) << "'" << c.text << "'";
  }
}

TEST(QueryParserConformance, BareQueries) {
  for (const ParseCase& c : kQueries) {
    std::string error;
    const std::optional<Query> q = ParseQuery(c.text, &error);
    EXPECT_EQ(q.has_value() ? QueryToString(*q) : error, c.expect)
        << "'" << c.text << "'";
  }
}

// A dimension is "d" or "D" and decimal digits: no sign, even one that
// leaves the number in range. The error follows every other bad dimension:
// it is reported at the next token, or at the dimension at end of input.
TEST(QueryParserTest, RejectsSignedDimensions) {
  const ParseCase cases[] = {
      {"SUM WHERE d-0 IN [1, 2]", "bad dimension 'd-0' (near byte 14)"},
      {"SUM WHERE d+1 IN [1, 2]", "bad dimension 'd+1' (near byte 14)"},
      {"SUM WHERE d-0", "bad dimension 'd-0' (near byte 10)"},
      {"SUM GROUP BY D+0", "bad dimension 'D+0' (near byte 13)"},
      {"SUM WHERE d0 = 1 AND d+1 = 2", "bad dimension 'd+1' (near byte 25)"},
  };
  for (const ParseCase& c : cases) {
    std::string error;
    EXPECT_FALSE(ParseStatement(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error, c.expect) << c.text;
  }
}

// ---------- Executor ----------

void FillSales(MeasureCube* cube) {
  // d0 = age, d1 = day.
  cube->AddObservation({30, 10}, 100);
  cube->AddObservation({40, 10}, 200);
  cube->AddObservation({40, 12}, 50);
  cube->AddObservation({55, 11}, 999);
}

TEST(QueryExecutorTest, PlainAggregates) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  QueryResult r = RunQuery("SUM", cube);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].sum, 1349);

  r = RunQuery("COUNT WHERE d0 IN [25, 45]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows[0].count, 3);

  r = RunQuery("AVG WHERE d0 IN [25, 45] AND d1 IN [10, 11]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.rows[0].value.has_value());
  EXPECT_DOUBLE_EQ(*r.rows[0].value, 150.0);
}

TEST(QueryExecutorTest, GroupBy) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  const QueryResult r =
      RunQuery("SUM GROUP BY d1 SIZE 2 WHERE d1 IN [10, 13]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].group_start, 10);
  EXPECT_EQ(r.rows[0].group_end, 11);
  EXPECT_EQ(r.rows[0].sum, 1299);
  EXPECT_EQ(r.rows[1].sum, 50);
}

TEST(QueryExecutorTest, RepeatedPredicatesIntersect) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  const QueryResult r =
      RunQuery("SUM WHERE d0 IN [0, 45] AND d0 IN [35, 63]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows[0].sum, 250);  // Only age 40 falls in [35, 45].
}

TEST(QueryExecutorTest, EmptyIntersectionYieldsNoRows) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  const QueryResult r =
      RunQuery("SUM WHERE d0 IN [0, 10] AND d0 IN [20, 30]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.rows.empty());
}

TEST(QueryExecutorTest, BadDimensionIsAnError) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  QueryResult r = RunQuery("SUM WHERE d5 = 1", cube);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("d5"), std::string::npos);
  r = RunQuery("SUM GROUP BY d9", cube);
  EXPECT_FALSE(r.ok);
}

TEST(QueryExecutorTest, BareCubeSupportsSumOnly) {
  DynamicDataCube cube(2, 16);
  cube.Add({3, 4}, 7);
  cube.Add({5, 4}, 9);
  QueryResult r = RunQuery("SUM WHERE d1 = 4", cube);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows[0].sum, 16);

  r = RunQuery("SUM GROUP BY d0 SIZE 4", cube);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0].sum, 7);   // d0 in [0,3].
  EXPECT_EQ(r.rows[1].sum, 9);   // d0 in [4,7].

  r = RunQuery("COUNT", cube);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("MeasureCube"), std::string::npos);
}

TEST(QueryExecutorTest, AvgOfEmptyGroupHasNoValue) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  // Restrict to ages 25-45: day 11 (the age-55 sale) becomes empty.
  const QueryResult r = RunQuery(
      "AVG GROUP BY d1 SIZE 1 WHERE d0 IN [25, 45] AND d1 IN [10, 12]", cube);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.rows[0].value.has_value());
  EXPECT_FALSE(r.rows[1].value.has_value());
  EXPECT_TRUE(r.rows[2].value.has_value());
}

TEST(QueryExecutorTest, FormatResultRendersTable) {
  MeasureCube cube(2, 64);
  FillSales(&cube);
  const QueryResult r = RunQuery("SUM GROUP BY d1 SIZE 2", cube);
  const std::string rendered = FormatResult(r);
  EXPECT_NE(rendered.find("SUM"), std::string::npos);
  EXPECT_NE(rendered.find("1299"), std::string::npos);

  QueryResult bad;
  bad.error = "boom";
  EXPECT_EQ(FormatResult(bad), "error: boom\n");
}

// Differential: grouped query totals equal the ungrouped total.
TEST(QueryExecutorTest, GroupTotalsPartition) {
  MeasureCube cube(2, 128);
  WorkloadGenerator gen(Shape::Cube(2, 128), 5);
  for (int i = 0; i < 500; ++i) {
    cube.AddObservation(gen.UniformCell(), gen.Value(1, 9));
  }
  const QueryResult whole = RunQuery("SUM WHERE d0 IN [10, 90]", cube);
  const QueryResult grouped =
      RunQuery("SUM GROUP BY d1 SIZE 16 WHERE d0 IN [10, 90]", cube);
  ASSERT_TRUE(whole.ok && grouped.ok);
  int64_t total = 0;
  for (const QueryResultRow& row : grouped.rows) total += row.sum;
  EXPECT_EQ(total, whole.rows[0].sum);
}

}  // namespace
}  // namespace ddc
