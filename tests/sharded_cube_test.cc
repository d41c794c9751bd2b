// Single-threaded differential tests for ShardedCube: a random op stream is
// applied in lockstep to a multi-shard ShardedCube, the coarse one-shard
// configuration, and the NaiveCube oracle, with answers compared every K
// ops. All randomness comes from TestSeed, which logs the seed so any
// failure replays with DDC_TEST_SEED=<seed>.

#include "concurrent/sharded_cube.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
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

// The core differential: random Add/Set stream against the oracle, at 4
// shards and at 1 (the coarse configuration), checked every K ops.
TEST(ShardedCubeTest, DifferentialAgainstNaive) {
  const uint64_t seed = TestSeed(20250805);
  const Shape shape = Shape::Cube(2, 32);
  NaiveCube naive(shape);
  ShardedCube single(2, 32, 1);
  ShardedCube sharded(2, 32, 4);

  WorkloadGenerator gen(shape, seed);
  constexpr int kOps = 3000;
  constexpr int kCheckEvery = 64;
  for (int i = 0; i < kOps; ++i) {
    const Cell cell = gen.UniformCell();
    if (gen.Value(0, 9) < 7) {
      const int64_t delta = gen.Value(-50, 50);
      naive.Add(cell, delta);
      single.Add(cell, delta);
      sharded.Add(cell, delta);
    } else {
      const int64_t value = gen.Value(-200, 200);
      naive.Set(cell, value);
      single.Set(cell, value);
      sharded.Set(cell, value);
    }
    if (i % kCheckEvery == 0) {
      const Box box = gen.UniformBox();
      const int64_t expected = naive.RangeSum(box);
      ASSERT_EQ(single.RangeSum(box), expected)
          << "op " << i << " box " << box.ToString() << " seed " << seed;
      ASSERT_EQ(sharded.RangeSum(box), expected)
          << "op " << i << " box " << box.ToString() << " seed " << seed;
      const Cell probe = gen.UniformCell();
      ASSERT_EQ(sharded.Get(probe), naive.Get(probe))
          << "op " << i << " seed " << seed;
      ASSERT_EQ(sharded.TotalSum(), single.TotalSum())
          << "op " << i << " seed " << seed;
    }
  }
  EXPECT_EQ(sharded.TotalSum(), naive.RangeSum(Box{{0, 0}, {31, 31}}));
  EXPECT_EQ(single.TotalSum(), naive.RangeSum(Box{{0, 0}, {31, 31}}));
}

// ApplyBatch must equal sequential application of the same mixed stream.
TEST(ShardedCubeTest, ApplyBatchMatchesSequentialApplication) {
  const uint64_t seed = TestSeed(97);
  const Shape shape = Shape::Cube(2, 32);
  NaiveCube naive(shape);
  ShardedCube sharded(2, 32, 8);

  const obs::Counter& batches =
      *obs::MetricsRegistry::Default().GetCounter("sharded.batches");
  const int64_t batches0 = batches.Value();
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
  if (obs::Enabled()) {
    EXPECT_EQ(batches.Value() - batches0, 40);
  }
}

// Growth in every direction: sharded vs one DynamicDataCube on
// far/negative coordinates (the naive oracle has a fixed domain and sits
// this one out).
TEST(ShardedCubeTest, GrowthDifferentialAgainstDdc) {
  const uint64_t seed = TestSeed(4242);
  DynamicDataCube reference(2, 8);
  ShardedCube sharded(2, 8, 4);

  WorkloadGenerator gen(Shape::Cube(2, 8), seed);
  for (int i = 0; i < 600; ++i) {
    // Coordinates across four orders of magnitude, both signs.
    const Coord x = gen.Value(-2000, 2000);
    const Coord y = gen.Value(-2000, 2000);
    const int64_t delta = gen.Value(1, 9);
    reference.Add({x, y}, delta);
    sharded.Add({x, y}, delta);
    if (i % 50 == 0) {
      Cell lo{gen.Value(-2500, 0), gen.Value(-2500, 0)};
      Cell hi{gen.Value(0, 2500), gen.Value(0, 2500)};
      const Box box{lo, hi};
      ASSERT_EQ(sharded.RangeSum(box), reference.RangeSum(box))
          << "op " << i << " box " << box.ToString() << " seed " << seed;
    }
  }
  EXPECT_EQ(sharded.TotalSum(), reference.TotalSum());
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

// Multi-slice batches, built in rounds of exactly one mutation per shard:
// a point in the shard's slab, or a range crossing slabs 0-2, which splits
// into one piece per shard. Round r is then position r of every shard
// group, so slice k ends after round (k + 1) * kApplySlice - 1.
constexpr size_t kSlice = ShardedCube::kApplySlice;

// Every shard group spans four slices of a 3-shard cube, with kSet and kAdd
// on the same cells on both sides of each slice boundary, range add/set
// pieces and zero range-sets (clipped to the domain, so rewritten) among
// the points. Its groups hold ranges, so they are sliced in batch order.
// The sharded cube, a 1-shard cube and the oracle must agree on every
// cell.
TEST(ShardedCubeTest, MultiSliceBatchesMatchNaive) {
  const uint64_t seed = TestSeed(31337);
  constexpr int kShards = 3;
  constexpr int64_t kSide = 64;  // Slab width 21; c0 = 63 is shard 0's.
  constexpr size_t kRounds = 3 * kSlice + 17;
  ShardedCube sharded(2, kSide, kShards);
  ShardedCube single(2, kSide, 1);
  NaiveCube naive(Shape::Cube(2, kSide));
  WorkloadGenerator gen(Shape::Cube(2, kSide), seed);
  const int64_t w = sharded.slab_width();
  // Shard s's boundary cells, and a small pool of its cells so that every
  // cell recurs across slices.
  const auto fixed = [w](int s, Coord y) { return Cell{s * w + 10, y}; };
  const auto pooled = [&](int s) {
    return Cell{s * w + gen.Value(0, 3), gen.Value(0, 7)};
  };

  MutationBatch batch;
  for (size_t r = 0; r < kRounds; ++r) {
    const size_t at = r % kSlice;
    const int64_t k = static_cast<int64_t>(r / kSlice);
    if (r >= kSlice && (at == 0 || at == kSlice - 1 || at == 1 ||
                        at == kSlice - 2)) {
      // Boundary rounds: row 30 gets a set before the boundary and an add
      // after it, row 31 an add before and a set after.
      for (int s = 0; s < kShards; ++s) {
        const int64_t v = 100 * k + s;
        if (at == kSlice - 1) {
          batch.push_back(Mutation{fixed(s, 30), v, MutationKind::kSet});
        } else if (at == 0) {
          batch.push_back(Mutation{fixed(s, 30), 7, MutationKind::kAdd});
        } else if (at == kSlice - 2) {
          batch.push_back(Mutation{fixed(s, 31), 5, MutationKind::kAdd});
        } else {
          batch.push_back(Mutation{fixed(s, 31), v, MutationKind::kSet});
        }
      }
      continue;
    }
    if (at == 2 || at == kSlice - 3) {
      // Range pieces right after / before a boundary, over the boundary
      // cells of every shard.
      batch.push_back(MakeRangeAdd({0, 30}, {60, 31}, gen.Value(-9, 9)));
      continue;
    }
    if (r % 997 == 5) {
      const Coord y = gen.Value(8, 20);
      batch.push_back(MakeRangeSet({3, y}, {45, y + 1}, gen.Value(-9, 9)));
      continue;
    }
    if (r % 1499 == 11) {
      // A zero range-set reaching below the domain: clipped to c0 >= 0,
      // it still splits into one piece per shard.
      const Coord y = gen.Value(0, 6);
      batch.push_back(MakeRangeSet({-5, y}, {49, y + 1}, 0));
      continue;
    }
    for (int s = 0; s < kShards; ++s) {
      if (gen.Value(0, 9) < 7) {
        batch.push_back(
            Mutation{pooled(s), gen.Value(-20, 20), MutationKind::kAdd});
      } else {
        batch.push_back(
            Mutation{pooled(s), gen.Value(-50, 50), MutationKind::kSet});
      }
    }
  }
  const obs::Counter& batched_ops =
      *obs::MetricsRegistry::Default().GetCounter("sharded.batched_ops");
  const int64_t batched_ops0 = batched_ops.Value();
  ASSERT_TRUE(sharded.ApplyBatch(batch));
  // One group entry per shard per round: four slices per group.
  if (obs::Enabled()) {
    EXPECT_EQ(batched_ops.Value() - batched_ops0,
              static_cast<int64_t>(kRounds) * kShards);
  }
  ASSERT_TRUE(single.ApplyBatch(batch));
  ASSERT_TRUE(naive.ApplyBatch(batch));

  for (Coord x = 0; x < kSide; ++x) {
    for (Coord y = 0; y < kSide; ++y) {
      const int64_t expected = naive.Get({x, y});
      ASSERT_EQ(sharded.Get({x, y}), expected)
          << "cell (" << x << "," << y << ") seed " << seed;
      ASSERT_EQ(single.Get({x, y}), expected)
          << "cell (" << x << "," << y << ") seed " << seed;
    }
  }
  for (int q = 0; q < 40; ++q) {
    const Box box = gen.UniformBox();
    ASSERT_EQ(sharded.RangeSum(box), naive.RangeSum(box)) << "seed " << seed;
  }
  EXPECT_EQ(sharded.ReRootEpoch(), 0);
}

// Point-only groups of more than three slices each, which are sliced in
// the shard tree's Z-order. Each shard has a hot cell that takes a third
// of its group, alternating kSet and kAdd, so its mutations cross slice
// boundaries in either order; the other points recur on a small pool of
// cells, some of them outside the domain along dimension 1, so the shards
// grow and re-root before they are sorted. The sharded cube, a 1-shard
// cube and the oracle must agree on every cell.
TEST(ShardedCubeTest, PointOnlyMultiSliceBatchesMatchNaive) {
  const uint64_t seed = TestSeed(4242);
  constexpr int kShards = 3;
  constexpr int64_t kSide = 64;  // Slab width 21.
  constexpr size_t kRounds = 4 * kSlice + 33;
  ShardedCube sharded(2, kSide, kShards);
  ShardedCube single(2, kSide, 1);
  WorkloadGenerator gen(Shape::Cube(2, kSide), seed);
  const int64_t w = sharded.slab_width();
  MutationBatch batch;
  for (size_t r = 0; r < kRounds; ++r) {
    for (int s = 0; s < kShards; ++s) {
      Cell cell{s * w + 7, 12};  // The hot cell.
      if (gen.Value(0, 2) != 0) {
        const int64_t row = gen.Value(0, 99);
        cell = {s * w + gen.Value(0, 5),
                row == 0   ? gen.Value(-40, -33)
                : row == 1 ? gen.Value(64, 71)
                           : gen.Value(0, 15)};
      }
      if (gen.Value(0, 3) == 0) {
        batch.push_back(Mutation{cell, gen.Value(-50, 50), MutationKind::kSet});
      } else {
        batch.push_back(Mutation{cell, gen.Value(-9, 9), MutationKind::kAdd});
      }
    }
  }
  // The oracle replays the batch in order; the cells span rows -40..71.
  std::map<std::pair<Coord, Coord>, int64_t> oracle;
  for (const Mutation& m : batch) {
    int64_t& v = oracle[{m.cell[0], m.cell[1]}];
    v = m.kind == MutationKind::kSet ? m.delta : v + m.delta;
  }
  ASSERT_TRUE(sharded.ApplyBatch(batch));
  ASSERT_TRUE(single.ApplyBatch(batch));
  EXPECT_GT(sharded.ReRootEpoch(), 0);
  for (const auto& [cell, v] : oracle) {
    const Cell c{cell.first, cell.second};
    ASSERT_EQ(sharded.Get(c), v)
        << "cell (" << c[0] << "," << c[1] << ") seed " << seed;
    ASSERT_EQ(single.Get(c), v)
        << "cell (" << c[0] << "," << c[1] << ") seed " << seed;
  }
  int64_t total = 0;
  for (const auto& [cell, v] : oracle) total += v;
  EXPECT_EQ(sharded.TotalSum(), total) << "seed " << seed;
  EXPECT_EQ(single.TotalSum(), total) << "seed " << seed;
}

// A sliced build has the structure of a one-call build: the same nodes,
// boxes, leaf blocks and faces (DdcStats apart from the arena bytes, which
// depend on allocation order), whether its groups are Z-sorted (points
// only) or kept in batch order (a range among the points).
TEST(ShardedCubeTest, SlicedBuildsHaveOneCallStructure) {
  const uint64_t seed = TestSeed(1618);
  constexpr int kShards = 2;
  constexpr int64_t kSide = 1024;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> coord(0, kSide - 1);
  for (const bool with_range : {false, true}) {
    ShardedCube sharded(2, kSide, kShards);
    std::vector<std::unique_ptr<DynamicDataCube>> one_call;
    std::vector<MutationBatch> groups(kShards);
    for (int s = 0; s < kShards; ++s) {
      one_call.push_back(std::make_unique<DynamicDataCube>(2, kSide));
    }
    MutationBatch batch;
    for (size_t i = 0; i < (3 * kShards + 2) * kSlice; ++i) {
      // The range lies inside one slab, so it lands whole in one group.
      const Mutation m =
          with_range && i == 777
              ? MakeRangeAdd({3, 100}, {40, 180}, 5)
              : Mutation{Cell{coord(rng), coord(rng)}, 1 + coord(rng) % 9,
                         MutationKind::kAdd};
      batch.push_back(m);
      groups[static_cast<size_t>(sharded.ShardOf(m.cell))].push_back(m);
    }
    ASSERT_TRUE(sharded.ApplyBatch(batch));
    DdcStats expected;
    for (int s = 0; s < kShards; ++s) {
      ASSERT_GT(groups[static_cast<size_t>(s)].size(), 3 * kSlice);
      ASSERT_TRUE(one_call[static_cast<size_t>(s)]->ApplyBatch(
          groups[static_cast<size_t>(s)]));
      expected += one_call[static_cast<size_t>(s)]->Stats();
    }
    const DdcStats got = sharded.Stats();
    EXPECT_EQ(got.nodes, expected.nodes) << with_range;
    EXPECT_EQ(got.boxes, expected.boxes) << with_range;
    EXPECT_EQ(got.raw_blocks, expected.raw_blocks) << with_range;
    EXPECT_EQ(got.raw_cells, expected.raw_cells) << with_range;
    EXPECT_EQ(got.face_stores, expected.face_stores) << with_range;
    EXPECT_EQ(got.nonzero_cells, expected.nonzero_cells) << with_range;
    EXPECT_EQ(got.bc_faces, expected.bc_faces) << with_range;
    EXPECT_EQ(got.nested_cores, expected.nested_cores) << with_range;
    EXPECT_EQ(got.leaf_faces, expected.leaf_faces) << with_range;
    EXPECT_EQ(sharded.TotalSum(),
              one_call[0]->TotalSum() + one_call[1]->TotalSum());
  }
}

// A growing batch whose out-of-domain cells sit in different slices of
// each group re-roots every shard exactly as its group does when applied
// unsliced to one DynamicDataCube per shard, and lands the same values.
TEST(ShardedCubeTest, SlicedGroupsReRootAsUnslicedGroups) {
  const uint64_t seed = TestSeed(2718);
  constexpr int kShards = 3;
  constexpr int64_t kSide = 16;  // Slab width 5.
  constexpr size_t kRounds = 3 * kSlice + 9;
  ShardedCube sharded(2, kSide, kShards);
  std::vector<std::unique_ptr<DynamicDataCube>> unsliced;
  std::vector<MutationBatch> groups(kShards);
  for (int s = 0; s < kShards; ++s) {
    unsliced.push_back(std::make_unique<DynamicDataCube>(2, kSide));
  }
  WorkloadGenerator gen(Shape::Cube(2, kSide), seed);
  // Rows outside [0, 16), each first reached in a different slice.
  const auto far_row = [](size_t r, int s) -> Coord {
    switch (r / kSlice) {
      case 0: return 40 + s;
      case 1: return -30 - 7 * s;
      case 2: return 300 + s;
      default: return -1000 - s;
    }
  };

  MutationBatch batch;
  for (size_t r = 0; r < kRounds; ++r) {
    if (r == 2 * kSlice + 50) {
      // A growing range split into one piece per shard (c0 1..14).
      const Mutation range = MakeRangeAdd({1, 480}, {14, 500}, 2);
      batch.push_back(range);
      for (int s = 0; s < kShards; ++s) {
        Mutation piece = range;
        piece.cell[0] = std::max<Coord>(1, 5 * s);
        piece.hi[0] = std::min<Coord>(14, 5 * s + 4);
        groups[static_cast<size_t>(s)].push_back(piece);
      }
      continue;
    }
    const bool far = r % kSlice == kSlice / 2 + 3 * (r / kSlice);
    for (int s = 0; s < kShards; ++s) {
      const Mutation m{Cell{5 * s + gen.Value(0, 4),
                            far ? far_row(r, s) : gen.Value(0, kSide - 1)},
                       gen.Value(1, 9), MutationKind::kAdd};
      batch.push_back(m);
      groups[static_cast<size_t>(s)].push_back(m);
    }
  }
  ASSERT_TRUE(sharded.ApplyBatch(batch));
  int64_t epochs = 0;
  int64_t total = 0;
  for (int s = 0; s < kShards; ++s) {
    ASSERT_GT(groups[static_cast<size_t>(s)].size(), 3 * kSlice);
    ASSERT_TRUE(unsliced[static_cast<size_t>(s)]->ApplyBatch(
        groups[static_cast<size_t>(s)]));
    epochs += unsliced[static_cast<size_t>(s)]->ReRootEpoch();
    total += unsliced[static_cast<size_t>(s)]->TotalSum();
  }
  EXPECT_GT(epochs, kShards);
  EXPECT_EQ(sharded.ReRootEpoch(), epochs) << "seed " << seed;
  EXPECT_EQ(sharded.TotalSum(), total) << "seed " << seed;
  for (int s = 0; s < kShards; ++s) {
    for (const Mutation& m : groups[static_cast<size_t>(s)]) {
      ASSERT_EQ(sharded.Get(m.cell),
                unsliced[static_cast<size_t>(s)]->Get(m.cell))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ddc
