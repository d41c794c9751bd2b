// Concurrency stress for ShardedCube: writer/reader thread mixes over
// Add/Set/ApplyBatch/RangeSum/ShrinkToFit with a final quiesced equivalence
// check against a mutex-protected shadow NaiveCube. Runs under the
// `sanitize` ctest label — the ThreadSanitizer build of this binary is the
// real assertion; the value checks catch logic races TSan cannot see.
//
// Write-conflict discipline: each writer thread owns the cells whose second
// coordinate is congruent to its index (mod kWriters) and only writes its
// own cells. Writers therefore never conflict on a cell, so the quiesced
// state equals the union of per-writer sequential histories regardless of
// interleaving — which is what makes the shadow comparison exact. Shards
// stripe the FIRST coordinate, so every writer still hits every shard and
// every lock interleaving is exercised.

#include "concurrent/sharded_cube.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutation.h"
#include "common/workload.h"
#include "naive/naive_cube.h"
#include "test_seed.h"

namespace ddc {
namespace {

// A multi-shard ApplyBatch of at least ShardedCube::kPoolMinBatch mutations
// runs its shard groups on the shared pool; give the pool real workers even
// on a single-core host so those groups race the readers from other
// threads. The writers below alternate such batches with small ones, which
// run every group on the caller. `overwrite=0` keeps an explicit operator
// override; runs before ThreadPool::Shared() is first constructed.
const int kForcePoolThreads = [] {
  setenv("DDC_POOL_THREADS", "3", /*overwrite=*/0);
  return 0;
}();

constexpr int kWriters = 3;
constexpr int kReaders = 3;
constexpr int64_t kSide = 64;
constexpr int64_t kPoolBatch =
    static_cast<int64_t>(ShardedCube::kPoolMinBatch);

TEST(ShardedStressTest, MixedWorkloadQuiescesToShadow) {
  const uint64_t seed = TestSeed(777001);
  ShardedCube cube(2, kSide, 8);
  NaiveCube shadow(Shape::Cube(2, kSide));
  std::mutex shadow_mutex;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t]() {
      WorkloadGenerator gen(Shape::Cube(2, kSide), seed + 1000u * (t + 1));
      // A cell this writer owns: any x, y ≡ t (mod kWriters).
      auto own_cell = [&]() {
        Cell c = gen.UniformCell();
        c[1] = (c[1] / kWriters) * kWriters + t;
        if (c[1] >= kSide) c[1] -= kWriters;
        return c;
      };
      for (int i = 0; i < 4000; ++i) {
        const int64_t roll = gen.Value(0, 99);
        if (roll < 55) {
          const Cell c = own_cell();
          const int64_t delta = gen.Value(-9, 9);
          cube.Add(c, delta);
          std::lock_guard lock(shadow_mutex);
          shadow.Add(c, delta);
        } else if (roll < 75) {
          const Cell c = own_cell();
          const int64_t value = gen.Value(-50, 50);
          cube.Set(c, value);
          std::lock_guard lock(shadow_mutex);
          shadow.Set(c, value);
        } else {
          std::vector<UpdateOp> batch;
          const int64_t batch_size =
              gen.Value(2, 24) + (i % 2 == 0 ? kPoolBatch : 0);
          for (int64_t b = 0; b < batch_size; ++b) {
            batch.push_back({own_cell(), gen.Value(-9, 9), UpdateKind::kAdd});
          }
          cube.ApplyBatch(batch);
          std::lock_guard lock(shadow_mutex);
          for (const UpdateOp& op : batch) shadow.Add(op.cell, op.delta);
        }
        // Periodic rather than random: a full shrink-to-2 forces every
        // shard to re-root and the following writes re-grow them — the race
        // we want — but at a few-percent op rate that re-insert churn
        // dominates the whole suite's runtime, so keep the count bounded.
        if (i % 999 == 998) cube.ShrinkToFit(2);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      WorkloadGenerator gen(Shape::Cube(2, kSide), seed + 77u * (t + 1));
      int64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t roll = gen.Value(0, 19);
        if (roll < 12) {
          sink += cube.RangeSum(gen.UniformBox());
        } else if (roll < 16) {
          sink += cube.Get(gen.UniformCell());
        } else if (roll < 18) {
          sink += cube.TotalSum();
        } else {
          cube.ForEachNonZero([&](const Cell&, int64_t v) { sink += v; });
        }
        // Single core: without a yield the readers starve the writers and
        // the test runs for its scheduling, not its logic.
        std::this_thread::yield();
      }
      // Keep the compiler honest about the reads.
      EXPECT_NE(sink, INT64_MIN);
    });
  }

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // Quiesced full-cube equivalence against the shadow.
  EXPECT_EQ(cube.TotalSum(), shadow.RangeSum(Box{{0, 0}, {kSide - 1, kSide - 1}}))
      << "seed " << seed;
  for (Coord x = 0; x < kSide; ++x) {
    for (Coord y = 0; y < kSide; ++y) {
      ASSERT_EQ(cube.Get({x, y}), shadow.Get({x, y}))
          << "cell (" << x << "," << y << ") seed " << seed;
    }
  }
  WorkloadGenerator gen(Shape::Cube(2, kSide), seed);
  for (int q = 0; q < 60; ++q) {
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube.RangeSum(box), shadow.RangeSum(box))
        << box.ToString() << " seed " << seed;
  }
}

// Per-shard batch atomicity: two cells in the same slab are only ever
// incremented together through ApplyBatch, so a single-shard RangeSum over
// exactly those cells must always observe an even total — even while other
// writers force growth re-rooting of the very shard being read.
TEST(ShardedStressTest, BatchIsAtomicPerShardUnderGrowth) {
  ShardedCube cube(2, 64, 8);  // slab width 8: x=0..7 is shard 0.
  const Cell kA{0, 0};
  const Cell kB{0, 5};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> parity_violations{0};

  std::thread pair_writer([&]() {
    for (int i = 0; i < 400; ++i) {
      const std::vector<UpdateOp> batch = {{kA, 1, UpdateKind::kAdd},
                                           {kB, 1, UpdateKind::kAdd}};
      cube.ApplyBatch(batch);
    }
  });

  // Forces repeated growth re-rooting of shard 0 — the very shard the
  // readers query: its slabs recur at x = ±64, ±128, ... (slab period
  // slab_width * num_shards = 64).
  std::thread growth_writer([&]() {
    Coord reach = 64;
    for (int i = 0; i < 60; ++i) {
      cube.Add({reach, 3}, 1);
      cube.Add({-reach, 3}, 1);
      reach += 64;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      const Box pair_box{{0, 0}, {0, 5}};
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t sum = cube.RangeSum(pair_box);
        if (sum % 2 != 0) parity_violations.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }

  pair_writer.join();
  growth_writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(parity_violations.load(), 0);
  EXPECT_EQ(cube.Get(kA), 400);
  EXPECT_EQ(cube.Get(kB), 400);
  EXPECT_EQ(cube.TotalSum(), 2 * 400 + 2 * 60);
  EXPECT_GT(cube.ReRootEpoch(), 0);
}

// ShrinkToFit racing readers: the writer repeatedly balloons shard 0's
// domain (grow to side 1024), zeroes the outlier, and shrinks back — every
// iteration is a real re-root rebuild, concurrent with readers querying the
// same shard. The core cells only ever receive +1, so the core-box sum a
// reader observes must be nondecreasing.
TEST(ShardedStressTest, ShrinkToFitRacesReaders) {
  ShardedCube cube(2, 8, 4);  // Slab width 2; x in [0,2) is shard 0.
  const Box kCoreBox{{0, 0}, {1, 7}};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};

  std::thread writer([&]() {
    for (int i = 0; i < 50; ++i) {
      cube.Add({0, i % 8}, 1);           // Core payload, shard 0.
      cube.Add({0, 1000}, 1);            // Balloon: grow to side >= 1024.
      cube.Set({0, 1000}, 0);            // Zero the outlier...
      cube.ShrinkToFit(2);               // ...and rebuild small: re-root.
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      int64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t sum = cube.RangeSum(kCoreBox);
        if (sum < last || sum > 50) violations.fetch_add(1);
        last = sum;
        std::this_thread::yield();
      }
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cube.RangeSum(kCoreBox), 50);
  EXPECT_EQ(cube.TotalSum(), 50);
  EXPECT_GT(cube.ReRootEpoch(), 50);  // Both growth and shrink re-roots.
}

// Cross-shard reads must return a consistent cut: every shard gets +1 in
// round-robin, so TotalSum observed concurrently can never exceed the
// final total, and at quiescence all protocol counters reconcile.
TEST(ShardedStressTest, CrossShardReadsSeeMonotoneTotals) {
  ShardedCube cube(2, 64, 8);
  constexpr int kRounds = 500;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> monotonicity_violations{0};

  std::thread writer([&]() {
    for (int i = 0; i < kRounds; ++i) {
      for (Coord s = 0; s < 8; ++s) {
        cube.Add({s * 8, 1}, 1);  // One cell per shard.
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      int64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t total = cube.TotalSum();
        if (total < last || total > 8 * kRounds) {
          monotonicity_violations.fetch_add(1);
        }
        last = total;
      }
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(monotonicity_violations.load(), 0);
  EXPECT_EQ(cube.TotalSum(), 8 * kRounds);
  const auto stats = cube.stats();
  EXPECT_EQ(stats.point_writes, 8 * kRounds);
  EXPECT_GT(stats.range_queries, 0);
}

// Every locking path at once on one cube: four band writers issue
// multi-shard ApplyBatch calls mixing point and range kinds that grow the
// shards past their initial side, a pair writer keeps two cells per shard
// equal through multi-shard batches (some of whose groups span two apply
// slices), and a RangeSumBatch reader, a ForEachNonZero walker and a
// ShrinkToFit loop race them (eight threads).
// Checks: no deadlock (a watchdog aborts the binary), every snapshot sees
// each shard's pair equal (per-shard batch atomicity), and the end state
// equals a NaiveCube replay of the writers' histories.
TEST(ShardedStressTest, CallerExecutedLockingUnderEveryOperation) {
  const uint64_t seed = TestSeed(777005);
  constexpr int kShards = 4;
  constexpr int64_t kInitialSide = 32;  // Slab width 8.
  constexpr int64_t kDomain = 96;       // Writers reach past 32: growth.
  constexpr int kBandWriters = 4;
  constexpr int64_t kBand = 12;         // Writer t owns y in [12t, 12t+12).
  constexpr Coord kPairY = kBandWriters * kBand;  // The pair writer's row.
  constexpr int kWriterBatches = 120;
  constexpr int kPairBatches = 1500;
  ShardedCube cube(2, kInitialSide, kShards);

  // Shard k's pair: both cells in slab k, so one shard owns both.
  auto pair_a = [](int k) { return Cell{8 * k, kPairY}; };
  auto pair_b = [](int k) { return Cell{8 * k + 5, kPairY + 3}; };

  std::vector<MutationBatch> histories(kBandWriters);
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::atomic<int64_t> batch_violations{0};
  std::atomic<int64_t> walk_violations{0};
  std::vector<std::thread> threads;
  auto spawn = [&](std::function<void()> body) {
    threads.emplace_back([&finished, body = std::move(body)] {
      body();
      finished.fetch_add(1);
    });
  };

  for (int t = 0; t < kBandWriters; ++t) {
    spawn([&, t] {
      WorkloadGenerator gen(Shape::Cube(2, kDomain), seed + 101u * (t + 1));
      const Coord y0 = t * kBand;
      auto band_box = [&](Cell* lo, Cell* hi) {
        const Coord x = gen.Value(0, kDomain - 1);
        const Coord y = y0 + gen.Value(0, kBand - 1);
        *lo = {x, y};
        *hi = {std::min<Coord>(kDomain - 1, x + gen.Value(0, 40)),
               std::min<Coord>(y0 + kBand - 1, y + gen.Value(0, 4))};
      };
      MutationBatch& history = histories[static_cast<size_t>(t)];
      for (int i = 0; i < kWriterBatches; ++i) {
        MutationBatch batch;
        const int64_t size = gen.Value(1, 8);
        for (int64_t b = 0; b < size; ++b) {
          const int64_t roll = gen.Value(0, 99);
          Cell lo, hi;
          band_box(&lo, &hi);
          if (roll < 45) {
            batch.push_back(Mutation{lo, gen.Value(-9, 9), MutationKind::kAdd});
          } else if (roll < 60) {
            batch.push_back(Mutation{lo, gen.Value(-9, 9), MutationKind::kSet});
          } else if (roll < 85) {
            batch.push_back(MakeRangeAdd(lo, hi, gen.Value(-3, 3)));
          } else {
            batch.push_back(MakeRangeSet(lo, hi, gen.Value(-2, 2)));
          }
        }
        // Every other batch is padded with point adds past the pool
        // crossover.
        for (int64_t b = 0; i % 2 == 0 && b < kPoolBatch; ++b) {
          Cell lo, hi;
          band_box(&lo, &hi);
          batch.push_back(Mutation{lo, gen.Value(-9, 9), MutationKind::kAdd});
        }
        ASSERT_TRUE(cube.ApplyBatch(batch));
        history.insert(history.end(), batch.begin(), batch.end());
      }
    });
  }
  // Filler between a pair's two adds widens the window a torn group would
  // expose: cells (8k + 1 .. 8k + 6, kPairY + 1 + 3m) for m < 11, still in
  // slab k and never on pair_b's row. Even batches carry enough filler to
  // reach the pool, odd ones run on the caller, and every 250th carries a
  // slice of filler per shard, so each group's pair_a and pair_b land in
  // different slices of its one exclusive hold.
  constexpr int kFiller = 6;
  constexpr int kPoolFiller = static_cast<int>(kPoolBatch) / kShards;
  constexpr int kSliceFiller = static_cast<int>(ShardedCube::kApplySlice);
  auto filler = [](int k, int j) {
    return Cell{8 * k + 1 + j % 6, kPairY + 1 + 3 * ((j / 6) % 11)};
  };
  auto fillers_in = [&](int i) {
    if (i % 250 == 125) return kSliceFiller;
    return i % 2 == 0 ? kPoolFiller : kFiller;
  };
  spawn([&] {
    for (int i = 0; i < kPairBatches; ++i) {
      MutationBatch batch;
      for (int k = 0; k < kShards; ++k) {
        batch.push_back(Mutation{pair_a(k), 1, MutationKind::kAdd});
        for (int j = 0; j < fillers_in(i); ++j) {
          batch.push_back(Mutation{filler(k, j), 1, MutationKind::kAdd});
        }
        batch.push_back(Mutation{pair_b(k), 1, MutationKind::kAdd});
      }
      ASSERT_TRUE(cube.ApplyBatch(batch));
    }
  });
  const int writers = kBandWriters + 1;

  spawn([&] {
    // Per shard k the batch answers a_k, then the whole domain, then b_k,
    // all in one group under one shared hold.
    std::vector<Box> boxes;
    for (int k = 0; k < kShards; ++k) {
      boxes.push_back(Box{pair_a(k), pair_a(k)});
    }
    boxes.push_back(Box{{0, 0}, {kDomain - 1, kDomain - 1}});
    for (int k = 0; k < kShards; ++k) {
      boxes.push_back(Box{pair_b(k), pair_b(k)});
    }
    std::vector<int64_t> out(boxes.size());
    while (!stop.load(std::memory_order_acquire)) {
      cube.RangeSumBatch(boxes, out);
      for (int k = 0; k < kShards; ++k) {
        if (out[k] != out[kShards + 1 + k]) batch_violations.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  spawn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::map<Cell, int64_t> snapshot;
      cube.ForEachNonZero([&](const Cell& c, int64_t v) { snapshot[c] = v; });
      for (int k = 0; k < kShards; ++k) {
        if (snapshot[pair_a(k)] != snapshot[pair_b(k)]) {
          walk_violations.fetch_add(1);
        }
      }
      // A walk holds every shard's lock, so it stalls every writer for its
      // whole length; back to back walks would let a multi-shard batch
      // through only once per walk.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  spawn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cube.ShrinkToFit(2);
      EXPECT_NE(cube.TotalSum(), INT64_MIN);
      // A shrink scans every cell and journal entry of each shard under its
      // exclusive lock; back to back they would serialize the whole run.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Watchdog: a lock-order bug shows up as threads that never finish, which
  // join() would turn into a silent hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(4);
  auto await = [&](int count) {
    while (finished.load() < count) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr,
                     "deadlock: %d of %d threads finished (seed %llu)\n",
                     finished.load(), count,
                     static_cast<unsigned long long>(seed));
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  await(writers);
  stop.store(true, std::memory_order_release);
  await(static_cast<int>(threads.size()));
  for (auto& th : threads) th.join();

  EXPECT_EQ(batch_violations.load(), 0);
  EXPECT_EQ(walk_violations.load(), 0);
  EXPECT_GT(cube.ReRootEpoch(), 0);

  NaiveCube shadow(Shape::Cube(2, kDomain));
  for (const MutationBatch& history : histories) {
    ASSERT_TRUE(shadow.ApplyBatch(history));
  }
  for (int k = 0; k < kShards; ++k) {
    shadow.Add(pair_a(k), kPairBatches);
    shadow.Add(pair_b(k), kPairBatches);
    for (int i = 0; i < kPairBatches; ++i) {
      for (int j = 0; j < fillers_in(i); ++j) shadow.Add(filler(k, j), 1);
    }
  }
  const Box all{{0, 0}, {kDomain - 1, kDomain - 1}};
  EXPECT_EQ(cube.TotalSum(), shadow.RangeSum(all)) << "seed " << seed;
  std::map<Cell, int64_t> walked;
  cube.ForEachNonZero([&](const Cell& c, int64_t v) { walked[c] = v; });
  for (Coord x = 0; x < kDomain; ++x) {
    for (Coord y = 0; y < kDomain; ++y) {
      const auto it = walked.find(Cell{x, y});
      ASSERT_EQ(it == walked.end() ? 0 : it->second, shadow.Get({x, y}))
          << "cell (" << x << "," << y << ") seed " << seed;
    }
  }
  WorkloadGenerator gen(Shape::Cube(2, kDomain), seed);
  for (int q = 0; q < 60; ++q) {
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube.RangeSum(box), shadow.RangeSum(box))
        << box.ToString() << " seed " << seed;
  }
}

// PrefixSum reads each shard's domain and its sum under one shared hold.
// Every batch here adds +1 at (3, 3) and -1 at a cell below the domain,
// growing it downward, so the sum of the cells <= (7, 7) is 0 between
// batches. On the coarse configuration (S = 1) a reader must read 0
// every time; a domain read under one hold and a range sum under another
// sees a batch's +1 but not its -1. Several cubes give the readers
// several hundred growths to race.
TEST(ShardedStressTest, PrefixSumSeesDownwardGrowthWhole) {
  constexpr int kCubes = 6;
  constexpr int kBatches = 40;
  int64_t reads = 0;
  int64_t torn = 0;
  for (int c = 0; c < kCubes; ++c) {
    ShardedCube cube(2, 8, 1);
    std::atomic<bool> stop{false};
    std::atomic<int64_t> cube_reads{0};
    std::atomic<int64_t> cube_torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (cube.PrefixSum({7, 7}) != 0) cube_torn.fetch_add(1);
          cube_reads.fetch_add(1);
        }
      });
    }
    while (cube_reads.load() < 16) std::this_thread::yield();
    Coord low = -1;
    for (int i = 0; i < kBatches; ++i) {
      const MutationBatch batch = {
          Mutation{{3, 3}, 1, MutationKind::kAdd},
          Mutation{{low, low}, -1, MutationKind::kAdd}};
      ASSERT_TRUE(cube.ApplyBatch(batch));
      low *= 2;
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(cube.PrefixSum({7, 7}), 0);
    EXPECT_EQ(cube.Get({3, 3}), kBatches);
    reads += cube_reads.load();
    torn += cube_torn.load();
  }
  EXPECT_EQ(torn, 0) << "of " << reads << " reads";
}

}  // namespace
}  // namespace ddc
