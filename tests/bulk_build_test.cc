// Tests for the bottom-up bulk loaders: BcTree::BuildFrom,
// DdcCore::BuildFromArray / DynamicDataCube::FromArray.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bctree/bc_tree.h"
#include "common/op_counter.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

TEST(BcTreeBuildFromTest, MatchesIncrementalConstruction) {
  for (int fanout : {2, 3, 8}) {
    for (int64_t capacity : {1, 5, 8, 9, 64, 100}) {
      std::mt19937_64 rng(static_cast<uint64_t>(fanout * 1000 + capacity));
      std::uniform_int_distribution<int64_t> value(-9, 9);
      std::vector<int64_t> values(static_cast<size_t>(capacity));
      for (auto& v : values) v = value(rng);

      BcTree bulk(capacity, fanout);
      bulk.BuildFrom(values);
      BcTree incremental(capacity, fanout);
      for (int64_t i = 0; i < capacity; ++i) {
        incremental.Add(i, values[static_cast<size_t>(i)]);
      }

      ASSERT_TRUE(bulk.CheckInvariants())
          << "fanout=" << fanout << " capacity=" << capacity;
      ASSERT_EQ(bulk.TotalSum(), incremental.TotalSum());
      for (int64_t i = 0; i < capacity; ++i) {
        ASSERT_EQ(bulk.CumulativeSum(i), incremental.CumulativeSum(i))
            << "i=" << i << " fanout=" << fanout << " cap=" << capacity;
      }
    }
  }
}

TEST(BcTreeBuildFromTest, SparseInputStaysLazy) {
  std::vector<int64_t> values(4096, 0);
  values[17] = 5;
  values[4000] = 7;
  BcTree tree(4096, 8);
  tree.BuildFrom(values);
  EXPECT_EQ(tree.CumulativeSum(4095), 12);
  EXPECT_EQ(tree.CumulativeSum(16), 0);
  EXPECT_EQ(tree.CumulativeSum(17), 5);
  // Only two root-to-leaf paths materialized.
  EXPECT_LE(tree.StorageCells(), 2 * 4 * 8);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeBuildFromTest, AllZeroBuildsNothing) {
  BcTree tree(64, 4);
  tree.BuildFrom(std::vector<int64_t>(64, 0));
  EXPECT_EQ(tree.StorageCells(), 0);
  EXPECT_EQ(tree.CumulativeSum(63), 0);
}

TEST(BcTreeBuildFromTest, CancellingLeafValuesAreKept) {
  BcTree tree(8, 4);
  tree.BuildFrom({3, -3, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(tree.TotalSum(), 0);
  EXPECT_EQ(tree.CumulativeSum(0), 3);
  EXPECT_EQ(tree.CumulativeSum(1), 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeBuildFromTest, ShortVectorZeroExtends) {
  BcTree tree(100, 8);
  tree.BuildFrom({1, 2, 3});
  EXPECT_EQ(tree.CumulativeSum(99), 6);
  EXPECT_EQ(tree.Value(2), 3);
  EXPECT_EQ(tree.Value(3), 0);
}

TEST(BcTreeBuildFromTest, UpdatesAfterBulkBuildWork) {
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int64_t> value(-5, 5);
  std::vector<int64_t> values(256);
  for (auto& v : values) v = value(rng);
  BcTree tree(256, 8);
  tree.BuildFrom(values);
  std::uniform_int_distribution<int64_t> index(0, 255);
  for (int op = 0; op < 200; ++op) {
    const int64_t i = index(rng);
    const int64_t d = value(rng);
    tree.Add(i, d);
    values[static_cast<size_t>(i)] += d;
    const int64_t probe = index(rng);
    int64_t expected = 0;
    for (int64_t j = 0; j <= probe; ++j) {
      expected += values[static_cast<size_t>(j)];
    }
    ASSERT_EQ(tree.CumulativeSum(probe), expected);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

struct BuildParam {
  int dims;
  int64_t side;
  int elide_levels;
  bool use_fenwick;
};

class DdcBuildFromArrayTest : public ::testing::TestWithParam<BuildParam> {};

TEST_P(DdcBuildFromArrayTest, MatchesIncrementalConstruction) {
  const BuildParam p = GetParam();
  const Shape shape = Shape::Cube(p.dims, p.side);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(p.dims * 100 + p.side));
  // Strictly positive values: with cancellations a line sum can be zero,
  // in which case bulk build (correctly) materializes *less* than repeated
  // Adds and exact storage equality no longer holds (covered separately in
  // CancellingValuesMayMaterializeLess).
  MdArray<int64_t> array = gen.RandomDenseArray(1, 9);

  DdcOptions options;
  options.elide_levels = p.elide_levels;
  options.use_fenwick = p.use_fenwick;
  auto bulk = DynamicDataCube::FromArray(array, options);

  DynamicDataCube incremental(p.dims, p.side, options);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });

  EXPECT_EQ(bulk->TotalSum(), incremental.TotalSum());
  EXPECT_EQ(bulk->StorageCells(), incremental.StorageCells());
  Cell probe(static_cast<size_t>(p.dims), 0);
  do {
    ASSERT_EQ(bulk->PrefixSum(probe), incremental.PrefixSum(probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, DdcBuildFromArrayTest,
    ::testing::Values(BuildParam{1, 16, 0, false}, BuildParam{2, 2, 0, false},
                      BuildParam{2, 8, 0, false}, BuildParam{2, 16, 0, false},
                      BuildParam{2, 16, 2, false}, BuildParam{3, 8, 0, false},
                      BuildParam{3, 8, 1, false}, BuildParam{4, 4, 0, false},
                      BuildParam{2, 16, 0, true}, BuildParam{3, 8, 0, true}));

TEST(DdcBuildFromArrayTest, CancellingValuesMayMaterializeLess) {
  const Shape shape = Shape::Cube(2, 8);
  WorkloadGenerator gen(shape, 208);
  MdArray<int64_t> array = gen.RandomDenseArray(-9, 9);
  auto bulk = DynamicDataCube::FromArray(array);
  DynamicDataCube incremental(2, 8);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });
  // Answers identical; bulk storage never exceeds the incremental one.
  EXPECT_LE(bulk->StorageCells(), incremental.StorageCells());
  Cell probe(2, 0);
  do {
    ASSERT_EQ(bulk->PrefixSum(probe), incremental.PrefixSum(probe));
  } while (shape.NextCell(&probe));
}

TEST(DdcBuildFromArrayTest, SparseArrayBuildsSparseStructure) {
  MdArray<int64_t> array(Shape::Cube(2, 256));
  array.at({10, 20}) = 5;
  array.at({200, 100}) = 7;
  auto cube = DynamicDataCube::FromArray(array);
  EXPECT_EQ(cube->TotalSum(), 12);
  EXPECT_EQ(cube->Get({10, 20}), 5);
  // Two paths' worth of structure, far below the dense footprint.
  EXPECT_LT(cube->StorageCells(), 2000);
}

TEST(DdcBuildFromArrayTest, UpdatesAfterBulkBuild) {
  const Shape shape = Shape::Cube(2, 32);
  WorkloadGenerator gen(shape, 9);
  MdArray<int64_t> array = gen.RandomDenseArray(0, 9);
  auto cube = DynamicDataCube::FromArray(array);
  NaiveCube naive(shape);
  array.ForEach([&](const Cell& c, const int64_t& v) { naive.Set(c, v); });

  for (int i = 0; i < 200; ++i) {
    const Cell c = gen.UniformCell();
    const int64_t d = gen.Value(-9, 9);
    cube->Add(c, d);
    naive.Add(c, d);
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube->RangeSum(box), naive.RangeSum(box)) << i;
  }
}

TEST(DdcBuildFromArrayTest, AllZeroArray) {
  MdArray<int64_t> array(Shape::Cube(3, 8));
  auto cube = DynamicDataCube::FromArray(array);
  EXPECT_EQ(cube->TotalSum(), 0);
  EXPECT_EQ(cube->PrefixSum({7, 7, 7}), 0);
}

// Bulk construction writes asymptotically fewer values than repeated Add.
TEST(DdcBuildFromArrayTest, BulkWritesFewerValues) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 13);
  MdArray<int64_t> array = gen.RandomDenseArray(1, 9);

  const int64_t bulk_writes =
      CountsOf([&] { DynamicDataCube::FromArray(array); }).values_written;

  DynamicDataCube incremental(2, 64);
  const int64_t incremental_writes =
      CountsOf([&] {
        array.ForEach(
            [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });
      }).values_written;
  EXPECT_LT(bulk_writes, incremental_writes / 2);
}

}  // namespace
}  // namespace ddc
