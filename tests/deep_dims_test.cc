// High-dimensionality coverage: the recursive face construction of the DDC
// nests d-1 levels deep; these tests exercise d = 5 and d = 6 (where faces
// are 4- and 5-dimensional nested cubes) against the naive oracle, plus the
// degenerate smallest cubes at each dimensionality.

#include <gtest/gtest.h>

#include "common/op_counter.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

class DeepDimsTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepDimsTest, RandomTraceMatchesNaive) {
  const int dims = GetParam();
  const int64_t side = 4;
  const Shape shape = Shape::Cube(dims, side);
  NaiveCube naive(shape);
  DynamicDataCube cube(dims, side);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(dims));
  for (int i = 0; i < 80; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    cube.Add(op.cell, op.delta);
    const Cell probe = gen.UniformCell();
    ASSERT_EQ(cube.PrefixSum(probe), naive.PrefixSum(probe))
        << CellToString(probe) << " after op " << i;
  }
  // Exhaustive final check across the whole (small) domain.
  Cell c(static_cast<size_t>(dims), 0);
  do {
    ASSERT_EQ(cube.PrefixSum(c), naive.PrefixSum(c)) << CellToString(c);
  } while (shape.NextCell(&c));
}

TEST_P(DeepDimsTest, MinimalSideTwoCube) {
  const int dims = GetParam();
  const Shape shape = Shape::Cube(dims, 2);
  NaiveCube naive(shape);
  DynamicDataCube cube(dims, 2);
  // Set every corner of the hypercube.
  Cell c(static_cast<size_t>(dims), 0);
  int64_t v = 1;
  do {
    naive.Set(c, v);
    cube.Set(c, v);
    ++v;
  } while (shape.NextCell(&c));
  c.assign(static_cast<size_t>(dims), 0);
  do {
    ASSERT_EQ(cube.PrefixSum(c), naive.PrefixSum(c)) << CellToString(c);
  } while (shape.NextCell(&c));
}

TEST_P(DeepDimsTest, UpdateCostStaysPolylog) {
  const int dims = GetParam();
  const int64_t side = 8;
  DynamicDataCube cube(dims, side);
  const int64_t written =
      CountsOf([&] { cube.Add(UniformCell(dims, 0), 1); }).values_written;
  // The model (2 * log2 side)^d is a generous ceiling for the recursive
  // update; the point is that it is bounded by a function of log side and d,
  // not of side^d (which would be 8^6 ~ 262144 for d=6).
  int64_t ceiling = 1;
  for (int i = 0; i < dims; ++i) ceiling *= 2 * 3;  // (2 log2 8)^d.
  EXPECT_LE(written, ceiling);
}

INSTANTIATE_TEST_SUITE_P(DimensionSweep, DeepDimsTest,
                         ::testing::Values(5, 6));

TEST(DeepDimsTest8, SingleUpdateAndQueries) {
  // d = 8 (the Table 1 dimensionality): one update, exact answers.
  const int dims = 8;
  DynamicDataCube cube(dims, 4);
  Cell target{1, 2, 3, 0, 1, 2, 3, 0};
  cube.Add(target, 42);
  EXPECT_EQ(cube.Get(target), 42);
  EXPECT_EQ(cube.PrefixSum(UniformCell(dims, 3)), 42);
  EXPECT_EQ(cube.PrefixSum(UniformCell(dims, 0)), 0);
  Cell just_below = target;
  just_below[2] -= 1;
  EXPECT_EQ(cube.PrefixSum(CellMax(just_below, UniformCell(dims, 0))), 0);
  EXPECT_EQ(cube.TotalSum(), 42);
}

}  // namespace
}  // namespace ddc
