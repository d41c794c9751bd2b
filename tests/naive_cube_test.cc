#include "naive/naive_cube.h"

#include <gtest/gtest.h>

#include "common/op_counter.h"
#include "common/workload.h"
#include "paper_example.h"

namespace ddc {
namespace {

using testing_support::kTargetCell;
using testing_support::kTargetRegionSum;
using testing_support::LoadPaperArray;

TEST(NaiveCubeTest, SetGet) {
  NaiveCube cube(Shape::Cube(2, 4));
  cube.Set({1, 2}, 7);
  EXPECT_EQ(cube.Get({1, 2}), 7);
  EXPECT_EQ(cube.Get({0, 0}), 0);
  cube.Add({1, 2}, -3);
  EXPECT_EQ(cube.Get({1, 2}), 4);
}

TEST(NaiveCubeTest, Domain) {
  NaiveCube cube(Shape({4, 8}));
  EXPECT_EQ(cube.DomainLo(), (Cell{0, 0}));
  EXPECT_EQ(cube.DomainHi(), (Cell{3, 7}));
  EXPECT_EQ(cube.dims(), 2);
  EXPECT_EQ(cube.StorageCells(), 32);
}

// The Section 3.1 example aggregates on the reconstructed paper array.
TEST(NaiveCubeTest, PaperWalkthroughAggregates) {
  NaiveCube cube(Shape::Cube(2, 8));
  LoadPaperArray(&cube);
  // Subtotal of the first overlay box: Sum(A[0,0]..A[3,3]) = 51.
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  // Row sum overlay cells [0,3] = 11, [1,3] = 29, [3,0] = 14.
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {0, 3}}), 11);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {1, 3}}), 29);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {3, 0}}), 14);
  // Figure 11 component sums: Q=51 R=48 S=24 U=16 L=7 N=5, total 151.
  EXPECT_EQ(cube.RangeSum(Box{{0, 4}, {3, 6}}), 48);
  EXPECT_EQ(cube.RangeSum(Box{{4, 0}, {5, 3}}), 24);
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {5, 5}}), 16);
  EXPECT_EQ(cube.Get({4, 6}), 7);
  EXPECT_EQ(cube.Get(kTargetCell), 5);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum);
  // Figure 12 walkthrough values in box V and box T.
  EXPECT_EQ(cube.RangeSum(Box{{4, 6}, {5, 6}}), 12);   // V row sum.
  EXPECT_EQ(cube.RangeSum(Box{{4, 6}, {5, 7}}), 15);   // V subtotal.
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {5, 7}}), 31);   // T row sum 1.
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {6, 7}}), 47);   // T row sum 2.
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {7, 6}}), 54);   // T column sum 3.
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {7, 7}}), 61);   // T subtotal.
}

TEST(NaiveCubeTest, RangeSumClipsToDomain) {
  NaiveCube cube(Shape::Cube(2, 4));
  cube.Set({0, 0}, 5);
  cube.Set({3, 3}, 7);
  EXPECT_EQ(cube.RangeSum(Box{{-10, -10}, {10, 10}}), 12);
  EXPECT_EQ(cube.RangeSum(Box{{4, 4}, {9, 9}}), 0);
}

TEST(NaiveCubeTest, UpdateCostIsConstant) {
  NaiveCube cube(Shape::Cube(2, 16));
  EXPECT_EQ(CountsOf([&] { cube.Add({3, 3}, 1); }).values_written, 1);
}

TEST(NaiveCubeTest, QueryCostIsRegionSize) {
  NaiveCube cube(Shape::Cube(2, 16));
  EXPECT_EQ(CountsOf([&] { cube.RangeSum(Box{{0, 0}, {7, 7}}); }).values_read,
            64);
}

TEST(NaiveCubeTest, OneDimensional) {
  NaiveCube cube(Shape({10}));
  for (Coord i = 0; i < 10; ++i) cube.Set({i}, i);
  EXPECT_EQ(cube.PrefixSum({9}), 45);
  EXPECT_EQ(cube.RangeSum(Box{{3}, {5}}), 12);
}

}  // namespace
}  // namespace ddc
