// Shutdown and snapshot semantics of ShardedCube under concurrent load:
// destruction right after concurrent batches and whole-cube walks racing
// batches and growth must apply every mutation exactly once — no lost
// mutations, no double-applied mutations — verified differentially
// against a shadow NaiveCube. The DDC_FAULTPOINT variants stall inside the
// shard critical sections ("sharded.owner.delay") so callers genuinely
// pile up on the shard locks; those tests skip themselves in default
// builds (-DDDC_FAULTS=OFF).
//
// Runs under the `sanitize` ctest label: the TSan build checks the shard
// lock handoff and the ordered ForEachNonZero acquisition for races.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutation.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "fault/failpoint.h"
#include "naive/naive_cube.h"
#include "test_seed.h"

namespace ddc {
namespace {

constexpr int64_t kSide = 32;

// Applies the same seeded per-thread mutation stream to `cube`; returns the
// stream so the caller can replay it into a shadow. Thread t owns cells
// with second coordinate ≡ t (mod num_threads), so streams never conflict
// and the union of histories is exact regardless of interleaving.
MutationBatch OwnedStream(int t, int num_threads, uint64_t seed, int ops) {
  WorkloadGenerator gen(Shape::Cube(2, kSide), seed + 1000u * (t + 1));
  MutationBatch stream;
  for (int i = 0; i < ops; ++i) {
    Cell c = gen.UniformCell();
    c[1] = (c[1] / num_threads) * num_threads + t;
    if (c[1] >= kSide) c[1] -= num_threads;
    stream.push_back(Mutation{c, gen.Value(-9, 9), MutationKind::kAdd});
  }
  return stream;
}

void ReplayIntoShadow(const MutationBatch& stream, NaiveCube& shadow) {
  for (const Mutation& m : stream) shadow.Add(m.cell, m.delta);
}

// Destruction immediately after the last ApplyBatch returns: every call is
// synchronous, so all groups have landed and destruction must not lose or
// re-apply anything. The
// differential check runs on a second cube built from the shadow, because
// the cube under test is gone.
TEST(ShardedDrainTest, DestructorAfterConcurrentBatchesLosesNothing) {
  const uint64_t seed = TestSeed(911001);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  NaiveCube shadow(Shape::Cube(2, kSide));
  std::vector<MutationBatch> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(OwnedStream(t, kThreads, seed, kOps));
  }

  auto cube = std::make_unique<ShardedCube>(2, kSide, 4);
  int64_t final_total = 0;
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        // Batches of 16: every ApplyBatch touches several shards, so
        // groups from different writers contend for the same shard locks.
        const MutationBatch& stream = streams[static_cast<size_t>(t)];
        for (size_t i = 0; i < stream.size(); i += 16) {
          const size_t n = std::min<size_t>(16, stream.size() - i);
          ASSERT_TRUE(cube->ApplyBatch(
              std::span<const Mutation>(stream.data() + i, n)));
        }
      });
    }
    for (auto& w : writers) w.join();
    final_total = cube->TotalSum();
    cube.reset();  // Destructor: drain + join while state is still hot.
  }

  for (int t = 0; t < kThreads; ++t) ReplayIntoShadow(streams[t], shadow);
  EXPECT_EQ(final_total,
            shadow.RangeSum(Box{{0, 0}, {kSide - 1, kSide - 1}}))
      << "seed " << seed;
}

// ForEachNonZero (every shard lock, in order) racing batches and growth:
// every walk must observe a per-shard-atomic state, and the quiesced final
// state must equal the shadow exactly.
TEST(ShardedDrainTest, QuiesceBarrierRacesGrowthAndBatches) {
  const uint64_t seed = TestSeed(911002);
  constexpr int kThreads = 3;
  constexpr int kOps = 900;
  ShardedCube cube(2, kSide, 4);
  NaiveCube shadow(Shape::Cube(2, kSide));
  std::vector<MutationBatch> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(OwnedStream(t, kThreads, seed, kOps));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const MutationBatch& stream = streams[static_cast<size_t>(t)];
      for (size_t i = 0; i < stream.size(); i += 8) {
        const size_t n = std::min<size_t>(8, stream.size() - i);
        cube.ApplyBatch(std::span<const Mutation>(stream.data() + i, n));
      }
    });
  }
  // Growth churn: balloon shard 0 far outside the initial domain and
  // shrink back, re-rooting while batches and walks are in flight.
  std::thread grower([&] {
    for (int i = 0; i < 30; ++i) {
      cube.Add({1000, 0}, 1);
      cube.Set({1000, 0}, 0);
      cube.ShrinkToFit(2);
    }
  });
  std::thread walker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      int64_t walked = 0;
      cube.ForEachNonZero([&](const Cell&, int64_t v) { walked += v; });
      // The walk is a consistent global snapshot; it must agree with the
      // scatter/gather total computed over the same quiesced instant only
      // at quiescence, but it must never crash or hang. Keep the value
      // alive so the walk is not optimized away.
      ASSERT_NE(walked, INT64_MIN);
      std::this_thread::yield();
    }
  });

  for (auto& w : writers) w.join();
  grower.join();
  stop.store(true, std::memory_order_release);
  walker.join();

  for (int t = 0; t < kThreads; ++t) ReplayIntoShadow(streams[t], shadow);
  EXPECT_GT(cube.ReRootEpoch(), 0);
  EXPECT_EQ(cube.TotalSum(),
            shadow.RangeSum(Box{{0, 0}, {kSide - 1, kSide - 1}}))
      << "seed " << seed;
  for (Coord x = 0; x < kSide; ++x) {
    for (Coord y = 0; y < kSide; ++y) {
      ASSERT_EQ(cube.Get({x, y}), shadow.Get({x, y}))
          << "cell (" << x << "," << y << ") seed " << seed;
    }
  }
}

// Fault-injected contention: shard critical sections sleep, so writer
// threads genuinely queue on stalled shard locks. Exactly-once is checked
// differentially.
TEST(ShardedDrainTest, DestructorDrainsStalledOwnersExactlyOnce) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault library compiled out (-DDDC_FAULTS=OFF)";
  }
  const uint64_t seed = TestSeed(911003);
  fault::SetSeed(seed);
  constexpr int kThreads = 4;
  constexpr int kOps = 200;
  NaiveCube shadow(Shape::Cube(2, kSide));
  std::vector<MutationBatch> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(OwnedStream(t, kThreads, seed, kOps));
  }

  fault::Arm("sharded.owner.delay", fault::Trigger::Every(2));
  int64_t final_total = 0;
  {
    ShardedCube cube(2, kSide, 4);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        const MutationBatch& stream = streams[static_cast<size_t>(t)];
        for (size_t i = 0; i < stream.size(); i += 8) {
          const size_t n = std::min<size_t>(8, stream.size() - i);
          cube.ApplyBatch(std::span<const Mutation>(stream.data() + i, n));
        }
      });
    }
    for (auto& w : writers) w.join();
    final_total = cube.TotalSum();
    // Destructor runs with the delay still armed.
  }
  EXPECT_GT(fault::Hits("sharded.owner.delay"), 0u);
  fault::DisarmAll();

  for (int t = 0; t < kThreads; ++t) ReplayIntoShadow(streams[t], shadow);
  EXPECT_EQ(final_total,
            shadow.RangeSum(Box{{0, 0}, {kSide - 1, kSide - 1}}))
      << "seed " << seed;
}

// Re-root under lock pressure: growth re-roots a shard mid-batch under its
// exclusive lock while other writers are queued on it; the
// re-rooted shard must neither lose queued mutations nor apply any twice.
TEST(ShardedDrainTest, ReRootUnderStalledOwnersKeepsBatchesExact) {
  if (!fault::Compiled()) {
    GTEST_SKIP() << "fault library compiled out (-DDDC_FAULTS=OFF)";
  }
  const uint64_t seed = TestSeed(911004);
  fault::SetSeed(seed);
  ShardedCube cube(2, kSide, 4);
  NaiveCube shadow(Shape::Cube(2, kSide));
  std::mutex shadow_mutex;

  fault::Arm("sharded.owner.delay", fault::Trigger::Every(3));
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      WorkloadGenerator gen(Shape::Cube(2, kSide), seed + 31u * (t + 1));
      for (int i = 0; i < 150; ++i) {
        Cell c = gen.UniformCell();
        c[1] = (c[1] / 3) * 3 + t;
        if (c[1] >= kSide) c[1] -= 3;
        const int64_t delta = gen.Value(-5, 5);
        cube.Add(c, delta);
        std::lock_guard lock(shadow_mutex);
        shadow.Add(c, delta);
      }
    });
  }
  std::thread grower([&] {
    for (int i = 0; i < 20; ++i) {
      cube.Add({500, 0}, 1);
      cube.Set({500, 0}, 0);
      cube.ShrinkToFit(2);
    }
  });
  for (auto& w : writers) w.join();
  grower.join();
  EXPECT_GT(fault::Hits("sharded.owner.delay"), 0u);
  fault::DisarmAll();

  EXPECT_GT(cube.ReRootEpoch(), 0);
  EXPECT_EQ(cube.TotalSum(),
            shadow.RangeSum(Box{{0, 0}, {kSide - 1, kSide - 1}}))
      << "seed " << seed;
  for (Coord x = 0; x < kSide; ++x) {
    for (Coord y = 0; y < kSide; ++y) {
      ASSERT_EQ(cube.Get({x, y}), shadow.Get({x, y}))
          << "cell (" << x << "," << y << ") seed " << seed;
    }
  }
}

// At quiescence the operation bookkeeping reconciles, and a fresh cube's
// destructor with zero traffic is clean.
TEST(ShardedDrainTest, MailboxAccountingReconcilesAtQuiescence) {
  {
    ShardedCube idle(2, 16, 4);  // No traffic at all: clean shutdown.
  }
  ShardedCube cube(2, kSide, 4);
  for (Coord i = 0; i < 16; ++i) cube.Add({i, i}, 1);
  (void)cube.TotalSum();
  const auto stats = cube.stats();
  EXPECT_EQ(stats.point_writes, 16);
}

}  // namespace
}  // namespace ddc
