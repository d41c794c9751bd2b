#include "basic_ddc/basic_ddc.h"

#include <gtest/gtest.h>

#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/workload.h"
#include "naive/naive_cube.h"
#include "paper_example.h"

namespace ddc {
namespace {

using testing_support::kTargetCell;
using testing_support::kTargetRegionSum;
using testing_support::LoadPaperArray;

// The complete Figure 11 walkthrough on the reconstructed paper array.
TEST(BasicDdcTest, PaperFigure11Query) {
  BasicDdc cube(2, 8);
  LoadPaperArray(&cube);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube.Get(kTargetCell), 5);
}

// The Figure 12 walkthrough: update cell * from 5 to 6 and verify both the
// new answers and the cascade size (V: row sum + subtotal = 2 values;
// T: three row sums + subtotal = 4 values; N: 1 leaf value; total 7 writes
// across three levels).
TEST(BasicDdcTest, PaperFigure12Update) {
  BasicDdc cube(2, 8);
  LoadPaperArray(&cube);
  EXPECT_EQ(CountsOf([&] { cube.Set(kTargetCell, 6); }).values_written, 7);
  EXPECT_EQ(cube.Get(kTargetCell), 6);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum + 1);
  // Box T's subtotal becomes 62, V's 16.
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {7, 7}}), 62);
  EXPECT_EQ(cube.RangeSum(Box{{4, 6}, {5, 7}}), 16);
}

TEST(BasicDdcTest, EmptyCubeAnswersZero) {
  BasicDdc cube(3, 8);
  EXPECT_EQ(cube.PrefixSum({7, 7, 7}), 0);
  EXPECT_EQ(cube.Get({3, 3, 3}), 0);
  EXPECT_EQ(cube.StorageCells(), 0);
}

struct BasicParam {
  int dims;
  int64_t side;
};

class BasicDdcRandomTest : public ::testing::TestWithParam<BasicParam> {};

TEST_P(BasicDdcRandomTest, AgreesWithNaive) {
  const auto [dims, side] = GetParam();
  const Shape shape = Shape::Cube(dims, side);
  NaiveCube naive(shape);
  BasicDdc cube(dims, side);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(dims * 1000 + side));
  for (int i = 0; i < 150; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    cube.Add(op.cell, op.delta);
    const Cell probe = gen.UniformCell();
    ASSERT_EQ(cube.PrefixSum(probe), naive.PrefixSum(probe))
        << CellToString(probe) << " after op " << i;
    Box box = gen.UniformBox();
    ASSERT_EQ(cube.RangeSum(box), naive.RangeSum(box)) << box.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimSideSweep, BasicDdcRandomTest,
    ::testing::Values(BasicParam{1, 2}, BasicParam{1, 16}, BasicParam{2, 2},
                      BasicParam{2, 4}, BasicParam{2, 16}, BasicParam{2, 32},
                      BasicParam{3, 4}, BasicParam{3, 8}, BasicParam{4, 4}));

// Worst-case update cost (updating the anchor) follows the Section 3.2
// series d*(n/2)^(d-1) + d*(n/4)^(d-1) + ... within the exact-layout
// refinement (the series is an upper bound built from the d*k^(d-1)
// approximation the paper itself uses).
TEST(BasicDdcTest, WorstCaseUpdateCostTracksSeries) {
  for (int64_t n : {8, 16, 32, 64}) {
    BasicDdc cube(2, n);
    cube.Add(UniformCell(2, n - 1), 1);  // Materialize cheap path first.
    // Anchor: worst case.
    const int64_t written =
        CountsOf([&] { cube.Add(UniformCell(2, 0), 1); }).values_written;
    const double model = BasicDdcUpdateCost(static_cast<double>(n), 2);
    const double measured = static_cast<double>(written);
    // The exact layout writes k^d - (k-1)^d <= d*k^(d-1) values per level;
    // measured must sit within [model/2, model] for d=2 (2k-1 vs 2k).
    EXPECT_LE(measured, model);
    EXPECT_GE(measured, model / 2.0);
  }
}

// Far-corner updates are the best case: one value per level.
TEST(BasicDdcTest, BestCaseUpdateCost) {
  BasicDdc cube(2, 64);
  EXPECT_EQ(CountsOf([&] { cube.Add(UniformCell(2, 63), 1); }).values_written,
            cube.num_levels());
}

// Queries touch at most (2^d - 1) values per level (Theorem 1's counting).
TEST(BasicDdcTest, QueryCostBound) {
  BasicDdc cube(2, 64);
  WorkloadGenerator gen(Shape::Cube(2, 64), 5);
  for (const UpdateOp& op : gen.UniformUpdates(300, 1, 9)) {
    cube.Add(op.cell, op.delta);
  }
  for (int i = 0; i < 50; ++i) {
    const Cell probe = gen.UniformCell();
    EXPECT_LE(CountsOf([&] { cube.PrefixSum(probe); }).values_read,
              3 * cube.num_levels());
  }
}

// Lazy allocation: a single populated cell materializes one box per level.
TEST(BasicDdcTest, SparseStorage) {
  BasicDdc cube(2, 1024);
  cube.Add({512, 512}, 1);
  // Boxes of side 512, 256, ..., 1: storage = sum of (2k-1).
  int64_t expected = 0;
  for (int64_t k = 512; k >= 1; k /= 2) expected += 2 * k - 1;
  EXPECT_EQ(cube.StorageCells(), expected);
  // Dense storage would be ~2 * 1024^2; sparse is ~2000.
  EXPECT_LT(cube.StorageCells(), 3000);
}

TEST(BasicDdcTest, SetOverwrites) {
  BasicDdc cube(2, 8);
  cube.Set({3, 3}, 10);
  cube.Set({3, 3}, 4);
  EXPECT_EQ(cube.Get({3, 3}), 4);
  EXPECT_EQ(cube.PrefixSum({7, 7}), 4);
}

}  // namespace
}  // namespace ddc
