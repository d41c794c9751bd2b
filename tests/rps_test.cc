#include "rps/relative_prefix_sum_cube.h"

#include <gtest/gtest.h>

#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/workload.h"
#include "naive/naive_cube.h"
#include "paper_example.h"

namespace ddc {
namespace {

TEST(RpsTest, BlockSideDefaultsToSqrtN) {
  RelativePrefixSumCube cube(Shape::Cube(2, 16));
  EXPECT_EQ(cube.block_side(0), 4);
  EXPECT_EQ(cube.block_side(1), 4);
  RelativePrefixSumCube cube10(Shape({10, 100}));
  EXPECT_EQ(cube10.block_side(0), 4);  // ceil(sqrt(10)).
  EXPECT_EQ(cube10.block_side(1), 10);
}

TEST(RpsTest, PaperWalkthrough) {
  RelativePrefixSumCube cube(Shape::Cube(2, 8));
  testing_support::LoadPaperArray(&cube);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube.PrefixSum(testing_support::kTargetCell),
            testing_support::kTargetRegionSum);
}

TEST(RpsTest, ConstantTimeQueries) {
  RelativePrefixSumCube cube(Shape::Cube(2, 64));
  WorkloadGenerator gen(Shape::Cube(2, 64), 3);
  for (const UpdateOp& op : gen.UniformUpdates(100, 1, 5)) {
    cube.Add(op.cell, op.delta);
  }
  // One read per dimension subset: 2^d = 4.
  EXPECT_LE(CountsOf([&] { cube.PrefixSum({40, 40}); }).values_read, 4);
}

// Worst-case update touches O((n/k + k)^d) = O(n^(d/2)) cells — far fewer
// than the prefix-sum cascade, far more than polylog.
TEST(RpsTest, UpdateCostEnvelope) {
  const int64_t n = 64;  // k = 8, blocks = 8.
  RelativePrefixSumCube cube(Shape::Cube(2, n));
  // Worst case.
  const int64_t worst = CountsOf([&] { cube.Add({0, 0}, 1); }).values_written;
  // (n/k + k)^d = 16^2 = 256.
  EXPECT_LE(worst, 256);
  // Must beat the prefix-sum worst case n^d = 4096 by a wide margin.
  EXPECT_LT(worst, 1000);
  // And the model n^(d/2) = 64 is a lower-ballpark witness.
  EXPECT_GE(worst, static_cast<int64_t>(RelativePrefixSumUpdateCost(n, 2)));
}

TEST(RpsTest, AgreesWithNaiveOnRandomTrace2D) {
  const Shape shape({16, 16});
  NaiveCube naive(shape);
  RelativePrefixSumCube rps(shape);
  WorkloadGenerator gen(shape, 8);
  for (int i = 0; i < 300; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    rps.Add(op.cell, op.delta);
    Box box = gen.UniformBox();
    ASSERT_EQ(rps.RangeSum(box), naive.RangeSum(box))
        << i << " " << box.ToString();
  }
}

TEST(RpsTest, AgreesWithNaiveOnRandomTrace3D) {
  const Shape shape({8, 8, 8});
  NaiveCube naive(shape);
  RelativePrefixSumCube rps(shape);
  WorkloadGenerator gen(shape, 9);
  for (int i = 0; i < 200; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    rps.Add(op.cell, op.delta);
    Box box = gen.UniformBox();
    ASSERT_EQ(rps.RangeSum(box), naive.RangeSum(box))
        << i << " " << box.ToString();
  }
}

TEST(RpsTest, NonSquareExtentsAndExplicitBlockSide) {
  const Shape shape({12, 5});
  NaiveCube naive(shape);
  RelativePrefixSumCube rps(shape, /*block_side=*/3);
  EXPECT_EQ(rps.block_side(0), 3);
  EXPECT_EQ(rps.block_side(1), 3);
  WorkloadGenerator gen(shape, 10);
  for (int i = 0; i < 200; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-5, 5)};
    naive.Add(op.cell, op.delta);
    rps.Add(op.cell, op.delta);
    Box box = gen.UniformBox();
    ASSERT_EQ(rps.RangeSum(box), naive.RangeSum(box));
  }
}

TEST(RpsTest, OneDimensional) {
  const Shape shape({30});
  NaiveCube naive(shape);
  RelativePrefixSumCube rps(shape);
  WorkloadGenerator gen(shape, 11);
  for (int i = 0; i < 150; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(0, 9)};
    naive.Add(op.cell, op.delta);
    rps.Add(op.cell, op.delta);
    const Cell probe = gen.UniformCell();
    ASSERT_EQ(rps.PrefixSum(probe), naive.PrefixSum(probe));
  }
}

TEST(RpsTest, GetAndSet) {
  RelativePrefixSumCube cube(Shape::Cube(2, 8));
  cube.Set({2, 3}, 10);
  EXPECT_EQ(cube.Get({2, 3}), 10);
  cube.Set({2, 3}, 4);
  EXPECT_EQ(cube.Get({2, 3}), 4);
  EXPECT_EQ(cube.Get({0, 0}), 0);
}

}  // namespace
}  // namespace ddc
