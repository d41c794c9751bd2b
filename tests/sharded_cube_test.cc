// Single-threaded differential tests for ShardedCube: a random op stream is
// applied in lockstep to ShardedCube, the coarse ConcurrentCube, and the
// NaiveCube oracle, with answers compared every K ops. All randomness comes
// from TestSeed, which logs the seed so any failure replays with
// DDC_TEST_SEED=<seed>.

#include "concurrent/sharded_cube.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/workload.h"
#include "concurrent/concurrent_cube.h"
#include "naive/naive_cube.h"
#include "obs/metrics.h"
#include "test_seed.h"

namespace ddc {
namespace {

// Gives the shared pool workers even on a single-core host, so the pooled
// batch path is checked everywhere. `overwrite=0` keeps an explicit
// operator override; runs before ThreadPool::Shared() is first constructed.
const int kForcePoolThreads = [] {
  setenv("DDC_POOL_THREADS", "3", /*overwrite=*/0);
  return 0;
}();

TEST(ShardedCubeTest, SingleThreadedSemantics) {
  ShardedCube cube(2, 16, 4);
  EXPECT_EQ(cube.num_shards(), 4);
  EXPECT_EQ(cube.slab_width(), 4);
  cube.Add({1, 2}, 10);
  cube.Set({3, 4}, 5);
  cube.Set({15, 15}, 7);
  EXPECT_EQ(cube.Get({1, 2}), 10);
  EXPECT_EQ(cube.Get({3, 4}), 5);
  EXPECT_EQ(cube.TotalSum(), 22);
  // Single-slab box (one shard) and cross-shard box.
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {3, 15}}), 15);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {15, 15}}), 22);
  // Overwrite through Set.
  cube.Set({3, 4}, 1);
  EXPECT_EQ(cube.TotalSum(), 18);
}

TEST(ShardedCubeTest, ShardMappingIsStableAndContiguous) {
  ShardedCube cube(2, 32, 8);
  EXPECT_EQ(cube.slab_width(), 4);
  // Contiguous slabs within the initial domain.
  EXPECT_EQ(cube.ShardOf({0, 0}), 0);
  EXPECT_EQ(cube.ShardOf({3, 31}), 0);
  EXPECT_EQ(cube.ShardOf({4, 0}), 1);
  EXPECT_EQ(cube.ShardOf({31, 5}), 7);
  // Periodic tiling past the initial domain and below zero.
  EXPECT_EQ(cube.ShardOf({32, 0}), 0);
  EXPECT_EQ(cube.ShardOf({-1, 0}), 7);
  EXPECT_EQ(cube.ShardOf({-4, 0}), 7);
  EXPECT_EQ(cube.ShardOf({-5, 0}), 6);
  // Only the first coordinate matters.
  EXPECT_EQ(cube.ShardOf({9, -1000}), cube.ShardOf({9, 1000}));
}

// The core differential: random Add/Set stream against both the coarse
// facade and the oracle, checked every K ops.
TEST(ShardedCubeTest, DifferentialAgainstCoarseAndNaive) {
  const uint64_t seed = TestSeed(20250805);
  const Shape shape = Shape::Cube(2, 32);
  NaiveCube naive(shape);
  ConcurrentCube coarse(2, 32);
  ShardedCube sharded(2, 32, 4);

  WorkloadGenerator gen(shape, seed);
  constexpr int kOps = 3000;
  constexpr int kCheckEvery = 64;
  for (int i = 0; i < kOps; ++i) {
    const Cell cell = gen.UniformCell();
    if (gen.Value(0, 9) < 7) {
      const int64_t delta = gen.Value(-50, 50);
      naive.Add(cell, delta);
      coarse.Add(cell, delta);
      sharded.Add(cell, delta);
    } else {
      const int64_t value = gen.Value(-200, 200);
      naive.Set(cell, value);
      coarse.Set(cell, value);
      sharded.Set(cell, value);
    }
    if (i % kCheckEvery == 0) {
      const Box box = gen.UniformBox();
      const int64_t expected = naive.RangeSum(box);
      ASSERT_EQ(coarse.RangeSum(box), expected)
          << "op " << i << " box " << box.ToString() << " seed " << seed;
      ASSERT_EQ(sharded.RangeSum(box), expected)
          << "op " << i << " box " << box.ToString() << " seed " << seed;
      const Cell probe = gen.UniformCell();
      ASSERT_EQ(sharded.Get(probe), naive.Get(probe))
          << "op " << i << " seed " << seed;
      ASSERT_EQ(sharded.TotalSum(), coarse.TotalSum())
          << "op " << i << " seed " << seed;
    }
  }
  EXPECT_EQ(sharded.TotalSum(), naive.RangeSum(Box{{0, 0}, {31, 31}}));
}

// ApplyBatch must equal sequential application of the same mixed stream.
TEST(ShardedCubeTest, ApplyBatchMatchesSequentialApplication) {
  const uint64_t seed = TestSeed(97);
  const Shape shape = Shape::Cube(2, 32);
  NaiveCube naive(shape);
  ShardedCube sharded(2, 32, 8);

  WorkloadGenerator gen(shape, seed);
  for (int round = 0; round < 40; ++round) {
    std::vector<UpdateOp> batch;
    const int64_t batch_size = gen.Value(1, 64);
    for (int64_t i = 0; i < batch_size; ++i) {
      UpdateOp op;
      op.cell = gen.UniformCell();
      if (gen.Value(0, 3) == 0) {
        op.kind = UpdateKind::kSet;
        op.delta = gen.Value(-100, 100);
      } else {
        op.kind = UpdateKind::kAdd;
        op.delta = gen.Value(-9, 9);
      }
      batch.push_back(op);
    }
    sharded.ApplyBatch(batch);
    for (const UpdateOp& op : batch) {
      if (op.kind == UpdateKind::kAdd) {
        naive.Add(op.cell, op.delta);
      } else {
        naive.Set(op.cell, op.delta);
      }
    }
    const Box box = gen.UniformBox();
    ASSERT_EQ(sharded.RangeSum(box), naive.RangeSum(box))
        << "round " << round << " seed " << seed;
  }
  EXPECT_EQ(sharded.stats().batches, 40);
}

// Growth in every direction: sharded vs coarse on far/negative coordinates
// (the naive oracle has a fixed domain and sits this one out).
TEST(ShardedCubeTest, GrowthDifferentialAgainstCoarse) {
  const uint64_t seed = TestSeed(4242);
  ConcurrentCube coarse(2, 8);
  ShardedCube sharded(2, 8, 4);

  WorkloadGenerator gen(Shape::Cube(2, 8), seed);
  for (int i = 0; i < 600; ++i) {
    // Coordinates across four orders of magnitude, both signs.
    const Coord x = gen.Value(-2000, 2000);
    const Coord y = gen.Value(-2000, 2000);
    const int64_t delta = gen.Value(1, 9);
    coarse.Add({x, y}, delta);
    sharded.Add({x, y}, delta);
    if (i % 50 == 0) {
      Cell lo{gen.Value(-2500, 0), gen.Value(-2500, 0)};
      Cell hi{gen.Value(0, 2500), gen.Value(0, 2500)};
      const Box box{lo, hi};
      ASSERT_EQ(sharded.RangeSum(box), coarse.RangeSum(box))
          << "op " << i << " box " << box.ToString() << " seed " << seed;
    }
  }
  EXPECT_EQ(sharded.TotalSum(), coarse.TotalSum());
  EXPECT_GT(sharded.ReRootEpoch(), 0);
  // The shards' combined domain covers everything that was written.
  EXPECT_EQ(sharded.RangeSum(Box{sharded.DomainLo(), sharded.DomainHi()}),
            sharded.TotalSum());
}

// ShrinkToFit must not change any answer.
TEST(ShardedCubeTest, ShrinkToFitPreservesAnswers) {
  const uint64_t seed = TestSeed(11);
  ShardedCube sharded(2, 64, 8);
  WorkloadGenerator gen(Shape::Cube(2, 64), seed);
  // Cluster data in a corner so shrinking has something to reclaim.
  for (int i = 0; i < 300; ++i) {
    sharded.Add({gen.Value(0, 15), gen.Value(0, 15)}, gen.Value(1, 9));
  }
  std::vector<Box> probes;
  std::vector<int64_t> expected;
  for (int q = 0; q < 30; ++q) {
    probes.push_back(gen.UniformBox());
    expected.push_back(sharded.RangeSum(probes.back()));
  }
  const int64_t total = sharded.TotalSum();
  sharded.ShrinkToFit();
  EXPECT_EQ(sharded.TotalSum(), total);
  for (size_t q = 0; q < probes.size(); ++q) {
    ASSERT_EQ(sharded.RangeSum(probes[q]), expected[q])
        << probes[q].ToString() << " seed " << seed;
  }
}

// S=1 degenerates to the coarse design and must agree with it exactly.
TEST(ShardedCubeTest, SingleShardMatchesCoarse) {
  const uint64_t seed = TestSeed(5);
  ConcurrentCube coarse(2, 16);
  ShardedCube single(2, 16, 1);
  WorkloadGenerator gen(Shape::Cube(2, 16), seed);
  for (int i = 0; i < 500; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t delta = gen.Value(-9, 9);
    coarse.Add(cell, delta);
    single.Add(cell, delta);
  }
  for (int q = 0; q < 50; ++q) {
    const Box box = gen.UniformBox();
    ASSERT_EQ(single.RangeSum(box), coarse.RangeSum(box)) << "seed " << seed;
  }
  EXPECT_EQ(single.TotalSum(), coarse.TotalSum());
}

// A batch below kPoolMinBatch runs every shard group on the caller: no
// pool helper starts, and each start records one queue-wait sample. From
// kPoolMinBatch up a multi-shard batch hands groups to the pool again.
// Both land exactly.
TEST(ShardedCubeTest, SmallBatchesRunOnTheCaller) {
  obs::SetEnabled(true);
  if (!obs::Enabled()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  if (ThreadPool::Shared().num_threads() == 0) {
    GTEST_SKIP() << "DDC_POOL_THREADS=0 leaves the pool without workers";
  }
  const obs::Histogram& helper_starts =
      *obs::MetricsRegistry::Default().GetHistogram(
          "threadpool.task.queue_wait_ns");
  ShardedCube cube(2, 64, 4);
  NaiveCube oracle(Shape::Cube(2, 64));
  // Cells spread over all four slabs.
  const auto batch_of = [](size_t n) {
    MutationBatch batch;
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = static_cast<int64_t>(i);
      batch.push_back(Mutation{
          {(k * 7) % 64, (k * 13) % 64}, 1 + k % 5, MutationKind::kAdd});
    }
    return batch;
  };

  const MutationBatch small = batch_of(ShardedCube::kPoolMinBatch - 1);
  int64_t starts = helper_starts.Count();
  ASSERT_TRUE(cube.ApplyBatch(small));
  EXPECT_EQ(helper_starts.Count(), starts);

  const MutationBatch large = batch_of(ShardedCube::kPoolMinBatch);
  starts = helper_starts.Count();
  ASSERT_TRUE(cube.ApplyBatch(large));
  EXPECT_GT(helper_starts.Count(), starts);

  ASSERT_TRUE(oracle.ApplyBatch(small));
  ASSERT_TRUE(oracle.ApplyBatch(large));
  for (int64_t x = 0; x < 64; x += 8) {
    const Box box{{x, 0}, {std::min<int64_t>(x + 11, 63), 40}};
    EXPECT_EQ(cube.RangeSum(box), oracle.RangeSum(box));
  }
  EXPECT_EQ(cube.TotalSum(), oracle.RangeSum(Box{{0, 0}, {63, 63}}));
}

}  // namespace
}  // namespace ddc
