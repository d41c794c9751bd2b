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
