// Differential suite for the batched range-sum executor: for every cube
// implementation, RangeSumBatch must be observably identical to a loop of
// RangeSum calls — including empty batches, empty boxes, duplicate ranges
// (the corner-dedup path), and ranges clipped by domain growth.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/cube_interface.h"
#include "common/range.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "olap/measure.h"

namespace ddc {
namespace {

// The container running CI may report a single hardware thread, which would
// leave the shared pool with zero workers and the parallel fan-out path
// (ShardedCube's per-shard write groups) permanently inline.
// Force real worker threads so those paths run cross-thread here (and under
// TSan via the `sanitize` ctest label). `overwrite=0` keeps any explicit
// operator override. Runs before main, i.e. before ThreadPool::Shared() is
// first constructed.
const int kForcePoolThreads = [] {
  setenv("DDC_POOL_THREADS", "3", /*overwrite=*/0);
  return 0;
}();

// Builds a batch that exercises all the interesting shapes: seeded uniform
// boxes, deliberate duplicates (shared corner sets must dedup to one term),
// empty boxes, degenerate single-cell boxes, and boxes reaching outside the
// populated domain.
std::vector<Box> MakeBatch(WorkloadGenerator& gen, int dims, int64_t side,
                           size_t count) {
  std::vector<Box> boxes;
  boxes.reserve(count + 8);
  for (size_t i = 0; i < count; ++i) {
    Box box = gen.UniformBox();
    boxes.push_back(box);
    if (i % 5 == 0) boxes.push_back(box);  // Exact duplicate.
  }
  // One empty box (lo > hi in dimension 0).
  Box empty;
  empty.lo = Cell(static_cast<size_t>(dims), 2);
  empty.hi = Cell(static_cast<size_t>(dims), 2);
  empty.lo[0] = 3;
  empty.hi[0] = 2;
  boxes.push_back(empty);
  // A single cell.
  Box point;
  point.lo = gen.UniformCell();
  point.hi = point.lo;
  boxes.push_back(point);
  // The whole domain, and a box hanging past its high edge.
  Box all;
  all.lo = Cell(static_cast<size_t>(dims), 0);
  all.hi = Cell(static_cast<size_t>(dims), side - 1);
  boxes.push_back(all);
  Box beyond = all;
  beyond.hi = Cell(static_cast<size_t>(dims), side + 7);
  boxes.push_back(beyond);
  return boxes;
}

// The differential property itself, for any object exposing RangeSum and
// RangeSumBatch (the facades are not CubeInterface subclasses).
template <typename CubeT>
void ExpectBatchMatchesLoop(const CubeT& cube, const std::vector<Box>& boxes) {
  std::vector<int64_t> expected(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    expected[i] = cube.RangeSum(boxes[i]);
  }
  // Pre-poison the output so a query the batch path skips shows up.
  std::vector<int64_t> got(boxes.size(), INT64_MIN);
  cube.RangeSumBatch(boxes, got);
  for (size_t i = 0; i < boxes.size(); ++i) {
    ASSERT_EQ(got[i], expected[i])
        << "box " << i << " = " << boxes[i].ToString();
  }
}

template <typename CubeT>
void PopulateAndCheck(CubeT& cube, int dims, int64_t side, uint64_t seed,
                      size_t batch_size) {
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, seed);
  for (int i = 0; i < 300; ++i) {
    cube.Add(gen.UniformCell(), gen.Value(-9, 9));
  }
  ExpectBatchMatchesLoop(cube, MakeBatch(gen, dims, side, batch_size));
  // Empty batch is a no-op.
  cube.RangeSumBatch(std::span<const Box>{}, std::span<int64_t>{});
}

TEST(QueryBatchTest, DynamicDataCubeMatchesLoop) {
  for (int dims : {1, 2, 3}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " seed=" + std::to_string(seed));
      DynamicDataCube cube(dims, 32);
      PopulateAndCheck(cube, dims, 32, seed, 40);
    }
  }
}

TEST(QueryBatchTest, DynamicDataCubeElidedAndFenwickVariants) {
  DdcOptions elided;
  elided.elide_levels = 2;
  DynamicDataCube cube_elided(2, 64, elided);
  PopulateAndCheck(cube_elided, 2, 64, 21, 40);

  DdcOptions fenwick;
  fenwick.use_fenwick = true;
  DynamicDataCube cube_fenwick(3, 16, fenwick);
  PopulateAndCheck(cube_fenwick, 3, 16, 22, 40);
}

// NaiveCube has no override, so this covers CubeInterface's default
// loop-of-RangeSum implementation (and doubles as an independent oracle:
// the DDC batch must agree with the naive batch on the same trace).
TEST(QueryBatchTest, DefaultImplementationAndCrossOracle) {
  const int dims = 2;
  const int64_t side = 32;
  const Shape shape = Shape::Cube(dims, side);
  NaiveCube naive(shape);
  DynamicDataCube cube(dims, side);
  WorkloadGenerator gen(shape, 31);
  for (int i = 0; i < 300; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t delta = gen.Value(-9, 9);
    naive.Add(cell, delta);
    cube.Add(cell, delta);
  }
  const std::vector<Box> boxes = MakeBatch(gen, dims, side, 30);
  ExpectBatchMatchesLoop(naive, boxes);
  std::vector<int64_t> from_naive(boxes.size());
  std::vector<int64_t> from_ddc(boxes.size());
  naive.RangeSumBatch(boxes, from_naive);
  cube.RangeSumBatch(boxes, from_ddc);
  EXPECT_EQ(from_naive, from_ddc);
}

TEST(QueryBatchTest, ShardedCubeAcrossShardCounts) {
  for (int shards : {1, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedCube cube(2, 64, shards);
    const Shape shape = Shape::Cube(2, 64);
    WorkloadGenerator gen(shape, 50 + static_cast<uint64_t>(shards));
    for (int i = 0; i < 500; ++i) {
      cube.Add(gen.UniformCell(), gen.Value(-9, 9));
    }
    // Batches repeatedly, so both the cross-shard scatter/gather fan-out
    // and the single-shard path (boxes confined to one slab) get exercised.
    ExpectBatchMatchesLoop(cube, MakeBatch(gen, 2, 64, 60));
    // A large batch (one corner-deduplicating call per shard) and a small
    // one.
    ExpectBatchMatchesLoop(cube, MakeBatch(gen, 2, 64, 200));
    ExpectBatchMatchesLoop(cube, MakeBatch(gen, 2, 64, 3));
    Box slab_local;
    slab_local.lo = {1, 1};
    slab_local.hi = {2, 60};  // Narrow in dim 0: one shard.
    ExpectBatchMatchesLoop(cube, {slab_local, slab_local});
  }
}

TEST(QueryBatchTest, MeasureCubeSumAndCountBatches) {
  MeasureCube cube(2, 32);
  const Shape shape = Shape::Cube(2, 32);
  WorkloadGenerator gen(shape, 61);
  for (int i = 0; i < 300; ++i) {
    cube.AddObservation(gen.UniformCell(), gen.Value(1, 100));
  }
  const std::vector<Box> boxes = MakeBatch(gen, 2, 32, 30);
  std::vector<int64_t> sums(boxes.size(), INT64_MIN);
  std::vector<int64_t> counts(boxes.size(), INT64_MIN);
  cube.RangeSumBatch(boxes, sums);
  cube.RangeCountBatch(boxes, counts);
  for (size_t i = 0; i < boxes.size(); ++i) {
    ASSERT_EQ(sums[i], cube.RangeSum(boxes[i])) << boxes[i].ToString();
    ASSERT_EQ(counts[i], cube.RangeCount(boxes[i])) << boxes[i].ToString();
  }
}

// Growth moves the origin negative; batched queries must clip corners to the
// grown domain exactly like RangeSum does, including boxes entirely outside
// and boxes straddling the (now negative) low edge.
TEST(QueryBatchTest, RangesClippedByGrowth) {
  DynamicDataCube cube(2, 8);
  const Shape shape = Shape::Cube(2, 8);
  WorkloadGenerator gen(shape, 71);
  for (int i = 0; i < 100; ++i) {
    cube.Add(gen.UniformCell(), gen.Value(-9, 9));
  }
  // Trigger growth in both directions.
  cube.Add({-13, 5}, 7);
  cube.Add({40, -2}, 3);
  cube.Add({-1, 33}, -4);
  ASSERT_GT(cube.growth_doublings(), 0);

  std::vector<Box> boxes;
  for (int i = 0; i < 40; ++i) {
    Box box = gen.UniformBox();
    // Shift some boxes across the negative region and past both edges.
    const int64_t shift = gen.Value(-30, 30);
    for (int d = 0; d < 2; ++d) {
      box.lo[d] += shift;
      box.hi[d] += shift + gen.Value(0, 20);
    }
    boxes.push_back(box);
  }
  Box everything;
  everything.lo = {-100, -100};
  everything.hi = {100, 100};
  boxes.push_back(everything);
  Box outside;
  outside.lo = {-500, -500};
  outside.hi = {-200, -200};
  boxes.push_back(outside);
  ExpectBatchMatchesLoop(cube, boxes);

  // TotalSum is the ground truth for the all-covering box.
  std::vector<int64_t> one(1);
  cube.RangeSumBatch(std::span<const Box>(&everything, 1), one);
  EXPECT_EQ(one[0], cube.TotalSum());
}

// Interleave writes with batched reads: every batch must still equal the
// per-query loop evaluated at the same quiescent point.
TEST(QueryBatchTest, BatchesInterleavedWithUpdates) {
  ShardedCube cube(2, 32, 3);
  const Shape shape = Shape::Cube(2, 32);
  WorkloadGenerator gen(shape, 81);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      cube.Add(gen.UniformCell(), gen.Value(-5, 5));
    }
    ExpectBatchMatchesLoop(cube, MakeBatch(gen, 2, 32, 20));
  }
}

}  // namespace
}  // namespace ddc
