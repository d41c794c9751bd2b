#include "prefix/prefix_sum_cube.h"

#include <gtest/gtest.h>

#include "common/op_counter.h"
#include "common/workload.h"
#include "naive/naive_cube.h"
#include "paper_example.h"

namespace ddc {
namespace {

using testing_support::LoadPaperArray;
using testing_support::PaperArrayA;

// Figure 3 of the paper: P[i,j] = SUM(A[0,0]:A[i,j]).
TEST(PrefixSumCubeTest, StoresCumulativeSums) {
  PrefixSumCube cube(Shape::Cube(2, 4));
  cube.Set({0, 0}, 1);
  cube.Set({0, 1}, 2);
  cube.Set({1, 0}, 3);
  cube.Set({1, 1}, 4);
  EXPECT_EQ(cube.PrefixSum({0, 0}), 1);
  EXPECT_EQ(cube.PrefixSum({0, 1}), 3);
  EXPECT_EQ(cube.PrefixSum({1, 0}), 4);
  EXPECT_EQ(cube.PrefixSum({1, 1}), 10);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 10);
  EXPECT_EQ(cube.Get({1, 1}), 4);
}

TEST(PrefixSumCubeTest, FromArrayMatchesIncremental) {
  const Shape shape({6, 5});
  WorkloadGenerator gen(shape, 21);
  MdArray<int64_t> a = gen.RandomDenseArray(-10, 10);

  PrefixSumCube built = PrefixSumCube::FromArray(a);
  PrefixSumCube incremental(shape);
  a.ForEach([&](const Cell& c, const int64_t& v) { incremental.Set(c, v); });

  Cell c(2, 0);
  do {
    EXPECT_EQ(built.PrefixSum(c), incremental.PrefixSum(c))
        << CellToString(c);
  } while (shape.NextCell(&c));
}

TEST(PrefixSumCubeTest, PaperWalkthrough) {
  PrefixSumCube cube(Shape::Cube(2, 8));
  LoadPaperArray(&cube);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube.PrefixSum(testing_support::kTargetCell),
            testing_support::kTargetRegionSum);
}

// Figure 5: updating A[1,1] must rewrite every P cell dominated by (1,1) —
// the cascading update; updating the origin rewrites the whole array.
TEST(PrefixSumCubeTest, CascadingUpdateCost) {
  PrefixSumCube cube(Shape::Cube(2, 8));
  EXPECT_EQ(CountsOf([&] { cube.Add({1, 1}, 5); }).values_written, 7 * 7);
  // O(n^d) worst case.
  EXPECT_EQ(CountsOf([&] { cube.Add({0, 0}, 5); }).values_written, 64);
  // Best case.
  EXPECT_EQ(CountsOf([&] { cube.Add({7, 7}, 5); }).values_written, 1);
}

// O(1) queries: a prefix query reads exactly one cell, a range query at
// most 2^d.
TEST(PrefixSumCubeTest, ConstantTimeQueries) {
  PrefixSumCube cube(Shape::Cube(3, 8));
  WorkloadGenerator gen(Shape::Cube(3, 8), 5);
  for (const UpdateOp& op : gen.UniformUpdates(50, 1, 9)) {
    cube.Add(op.cell, op.delta);
  }
  EXPECT_EQ(CountsOf([&] { cube.PrefixSum({5, 5, 5}); }).values_read, 1);
  EXPECT_LE(
      CountsOf([&] { cube.RangeSum(Box{{1, 2, 3}, {5, 6, 7}}); }).values_read,
      8);
}

TEST(PrefixSumCubeTest, AgreesWithNaiveOnRandomTrace) {
  const Shape shape({8, 8});
  NaiveCube naive(shape);
  PrefixSumCube prefix(shape);
  WorkloadGenerator gen(shape, 77);
  for (int i = 0; i < 200; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-20, 20)};
    naive.Add(op.cell, op.delta);
    prefix.Add(op.cell, op.delta);
    Box box = gen.UniformBox();
    ASSERT_EQ(prefix.RangeSum(box), naive.RangeSum(box)) << box.ToString();
  }
}

TEST(PrefixSumCubeTest, OneDimensional) {
  PrefixSumCube cube(Shape({16}));
  for (Coord i = 0; i < 16; ++i) cube.Set({i}, 1);
  EXPECT_EQ(cube.PrefixSum({15}), 16);
  EXPECT_EQ(cube.RangeSum(Box{{4}, {7}}), 4);
}

}  // namespace
}  // namespace ddc
