// The coarse concurrent cube: ShardedCube with one shard, one lock and one
// DynamicDataCube (DESIGN.md §7). Single-threaded semantics, parallel
// writers that grow the domain under a live reader, and two-mutation
// batches that readers must never see half applied while growth re-roots
// the cube. Runs under the `sanitize` ctest label; the ThreadSanitizer
// build of this binary is the real assertion for the threaded cases.

#include "concurrent/sharded_cube.h"

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutation.h"
#include "common/workload.h"

namespace ddc {
namespace {

// The coarse configuration: one shard, one lock, one cube.
TEST(CoarseCubeTest, SingleThreadedSemantics) {
  ShardedCube cube(2, 16, 1);
  EXPECT_EQ(cube.slab_width(), 16);
  cube.Add({1, 2}, 10);
  cube.Set({3, 4}, 5);
  EXPECT_EQ(cube.Get({1, 2}), 10);
  EXPECT_EQ(cube.TotalSum(), 15);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {15, 15}}), 15);
  cube.Add({1000, 1000}, 1);  // Growth under the lock.
  EXPECT_EQ(cube.TotalSum(), 16);
  EXPECT_EQ(cube.ShardOf({1000, 1000}), 0);
  EXPECT_EQ(cube.PrefixSum({1000, 1000}), 16);
}

// The coarse configuration (S = 1) under parallel writers: four threads
// add +1 at uniform cells and push the domain out in four directions, each
// re-root swapping the whole core, while a reader sees the total only grow
// and never pass its final value. No update may be lost.
TEST(CoarseCubeTest, ParallelWritersGrowTheDomain) {
  constexpr int kThreads = 4;
  constexpr int kUniform = 2000;
  constexpr Coord kReach = 500;
  constexpr int64_t kTotal = kThreads * (kUniform + kReach);
  ShardedCube cube(2, 4, 1);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::thread reader([&] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t total = cube.TotalSum();
      if (total < last || total > kTotal) violations.fetch_add(1);
      last = total;
      if (cube.RangeSum(Box{{0, 0}, {63, 63}}) > kTotal) {
        violations.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cube, t] {
      WorkloadGenerator gen(Shape::Cube(2, 64), static_cast<uint64_t>(t));
      const Coord sign0 = (t & 1) ? 1 : -1;
      const Coord sign1 = (t & 2) ? 1 : -1;
      for (Coord i = 1; i <= kUniform; ++i) {
        cube.Add(gen.UniformCell(), 1);
        if (i <= kReach) cube.Add({sign0 * i, sign1 * i}, 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cube.TotalSum(), kTotal);
  // Writer 3's diagonal reaches (1, 1) .. (63, 63) inside the box.
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {63, 63}}), kThreads * kUniform + 63);
  EXPECT_EQ(cube.Get({kReach, kReach}), 1);
  EXPECT_EQ(cube.Get({-kReach, kReach}), 1);
  EXPECT_EQ(cube.Get({kReach, -kReach}), 1);
  EXPECT_EQ(cube.Get({-kReach, -kReach}), 1);
  EXPECT_GT(cube.ReRootEpoch(), 0);
}

// Two-mutation batches on the coarse configuration (S = 1) racing growth
// re-roots: a mover shifts 3 from one cell to another and a pair writer
// adds 1 to two far-apart cells, one ApplyBatch each, while a grower's
// far-out writes re-root the cube again and again. ForEachNonZero
// snapshots must never see half a batch, and the batch cells must survive
// every re-root intact.
TEST(CoarseCubeTest, BatchesAreAtomicUnderGrowth) {
  ShardedCube cube(2, 4, 1);
  const Cell kFrom{0, 0};
  const Cell kTo{1, 1};
  const Cell kA{3, 0};
  const Cell kB{63, 63};
  constexpr int kMoves = 400;
  constexpr int kPairs = 600;
  constexpr int kGrowths = 40;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};

  std::thread mover([&] {
    for (int i = 0; i < kMoves; ++i) {
      const MutationBatch batch = {Mutation{kFrom, -3, MutationKind::kAdd},
                                   Mutation{kTo, 3, MutationKind::kAdd}};
      ASSERT_TRUE(cube.ApplyBatch(batch));
    }
  });
  std::thread pair_writer([&] {
    for (int i = 0; i < kPairs; ++i) {
      const MutationBatch batch = {Mutation{kA, 1, MutationKind::kAdd},
                                   Mutation{kB, 1, MutationKind::kAdd}};
      ASSERT_TRUE(cube.ApplyBatch(batch));
    }
  });
  std::thread grower([&] {
    Coord reach = 4;
    for (int i = 0; i < kGrowths; ++i) {
      // Alternate directions so the origin moves negative too.
      cube.Add({reach, reach}, 1);
      cube.Add({-reach, -reach}, 1);
      reach *= 2;
      if (reach > (Coord{1} << 40)) reach = 4;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::map<Cell, int64_t> seen;
        cube.ForEachNonZero([&](const Cell& c, int64_t v) {
          if (c == kFrom || c == kTo || c == kA || c == kB) seen[c] = v;
        });
        if (seen[kFrom] + seen[kTo] != 0 || seen[kA] != seen[kB]) {
          violations.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }

  mover.join();
  pair_writer.join();
  grower.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cube.Get(kFrom), -3 * kMoves);
  EXPECT_EQ(cube.Get(kTo), 3 * kMoves);
  EXPECT_EQ(cube.Get(kA), kPairs);
  EXPECT_EQ(cube.Get(kB), kPairs);
  EXPECT_EQ(cube.TotalSum(), 2 * kGrowths + 2 * kPairs);
  EXPECT_GT(cube.ReRootEpoch(), 0);
}

}  // namespace
}  // namespace ddc
