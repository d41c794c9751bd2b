// Unit tests for the two new common-layer building blocks: the per-cube
// Arena allocator (memory layout tentpole) and the caller-participating
// ThreadPool (batched-query fan-out).

#include "common/arena.h"

#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/cell.h"
#include "common/thread_pool.h"
#include "ddc/ddc_core.h"

namespace ddc {
namespace {

TEST(ArenaTest, AllocateRespectsAlignment) {
  Arena arena;
  for (size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                       alignof(max_align_t), Arena::kMaxAlign}) {
    for (size_t bytes : {size_t{1}, size_t{3}, size_t{17}, size_t{160}}) {
      void* p = arena.Allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << bytes << " bytes at alignment " << align;
    }
  }
}

TEST(ArenaTest, CreateConstructsAndValueInitializes) {
  Arena arena;
  struct Pod {
    int64_t a = 41;
    int32_t b = 7;
  };
  Pod* pod = arena.Create<Pod>();
  EXPECT_EQ(pod->a, 41);
  EXPECT_EQ(pod->b, 7);

  int64_t* array = arena.CreateArray<int64_t>(100);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(array[i], 0);
}

TEST(ArenaTest, RegisteredDestructorsRunInReverseOrder) {
  std::vector<int> destroyed;
  struct Tracker {
    explicit Tracker(std::vector<int>* log, int id) : log(log), id(id) {}
    ~Tracker() { log->push_back(id); }
    std::vector<int>* log;
    int id;
  };
  {
    Arena arena;
    arena.Create<Tracker>(&destroyed, 1);
    arena.Create<Tracker>(&destroyed, 2);
    arena.Create<Tracker>(&destroyed, 3);
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<int>{3, 2, 1}));
}

TEST(ArenaTest, TriviallyDestructibleObjectsRegisterNoCleanup) {
  Arena arena;
  struct Pod {
    int64_t a = 1;
  };
  arena.Create<Pod>();
  arena.CreateArray<int64_t>(4);
  EXPECT_EQ(arena.num_cleanups(), 0u);
  arena.Create<std::vector<int64_t>>();
  EXPECT_EQ(arena.num_cleanups(), 1u);
}

// Every DDC structure — nodes, boxes, face arrays with their inline B_c
// faces, nested face cores, leaf slabs and leaf faces — is trivially
// destructible, so a cube's arena carries no cleanup list however many faces
// it materializes.
TEST(ArenaTest, DdcFaceHierarchyRegistersNoCleanups) {
  for (const int dims : {2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "dims=" << dims);
    const int64_t side = 16;
    OwnedDdcCore core(dims, side, DdcOptions{});
    std::mt19937_64 rng(static_cast<uint64_t>(dims));
    std::uniform_int_distribution<int64_t> coord(0, side - 1);
    std::vector<Cell> cells(64, Cell(static_cast<size_t>(dims)));
    for (Cell& cell : cells) {
      for (Coord& c : cell) c = coord(rng);
    }
    const std::vector<int64_t> deltas(cells.size(), 1);
    core.AddBatch(cells, deltas);
    const DdcStats stats = core.Stats();
    EXPECT_GT(stats.bc_faces, 0);
    // >= 2-D faces: nested cores, or bare leaf slabs at side 2.
    EXPECT_EQ(stats.nested_cores + stats.leaf_faces > 0, dims >= 3);
    EXPECT_EQ(core.arena()->num_cleanups(), 0u);
  }
}

TEST(ArenaTest, OwningObjectsReleaseTheirHeapMemory) {
  // A vector's buffer lives on the heap, not in the arena; the registered
  // destructor must free it (ASan would flag the leak otherwise).
  Arena arena;
  auto* vec = arena.Create<std::vector<int64_t>>(10000, int64_t{5});
  EXPECT_EQ(vec->size(), 10000u);
  EXPECT_EQ((*vec)[9999], 5);
}

TEST(ArenaTest, GrowsAcrossBlocksAndTracksUsage) {
  Arena arena;
  EXPECT_EQ(arena.num_blocks(), 0u);
  size_t total = 0;
  for (int i = 0; i < 4000; ++i) {
    arena.Allocate(48, 8);
    total += 48;
  }
  EXPECT_GE(arena.num_blocks(), 2u);
  EXPECT_GE(arena.bytes_used(), total);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnBlock) {
  Arena arena;
  char* big = static_cast<char*>(arena.Allocate(1 << 20, 8));
  big[0] = 1;
  big[(1 << 20) - 1] = 2;  // Whole extent writable (ASan-checked).
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
  // The arena keeps working after an oversized block.
  int64_t* after = arena.CreateArray<int64_t>(8);
  EXPECT_EQ(after[7], 0);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndSingleIteration) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, BackToBackLoopsReuseTheWorkers) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t i) {
      sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, SharedPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::Shared().ParallelFor(
      16, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace ddc
