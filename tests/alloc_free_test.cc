// Heap-allocation contract of the DDC write and read paths, of the
// statement parser and of the shard layer's batch routing.
//
// This binary replaces the global operator new with a counting one (which
// also tracks live heap bytes and their high-water mark), so it is built
// as its own test executable. It pins these properties:
//   * leaf blocks are arena slabs and nested face cores carry no heap
//     scratch, so materializing new cells costs only arena blocks (plus the
//     geometric growth of the arena's bookkeeping vectors);
//   * once the touched cells exist, Add / AddBatch / PrefixSum /
//     PrefixSumBatch allocate nothing;
//   * a DdcCore header (one per nested face) stays within 128 bytes, and a
//     face (a B_c tree held inline) within 24;
//   * parsing a statement allocates only the Statement it returns;
//   * ShardedCube::ApplyBatch routes a batch without copying it: a small
//     batch allocates nothing past its shard cubes' own batched applies,
//     and a large one holds at most a few slices of scratch at once;
//   * ShardedCube::RangeSumBatch routes a batch without copying it either:
//     it allocates nothing past its shard cubes' own batched reads.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_cube.h"
#include "common/cell.h"
#include "common/mutation.h"
#include "concurrent/sharded_cube.h"
#include "ddc/ddc_core.h"
#include "ddc/ddc_options.h"
#include "ddc/dynamic_data_cube.h"
#include "query/executor.h"
#include "query/parser.h"

namespace {

std::atomic<int64_t> g_allocations{0};
// Live bytes handed out by operator new (malloc_usable_size of each block)
// and their high-water mark since the last ResetHeapPeak().
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* CountedAlloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) return nullptr;
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t bytes) {
  if (void* p = CountedAlloc(bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) {
  if (void* p = CountedAlloc(bytes)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return CountedAlloc(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return CountedAlloc(bytes);
}
// GCC cannot see that the replaced operator new above is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ddc {
namespace {

// Heap allocations made while running `fn`.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Starts a new high-water mark at the current live heap; returns it.
int64_t ResetHeapPeak() {
  const int64_t live = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live, std::memory_order_relaxed);
  return live;
}

// Allowance for the arena's two bookkeeping vectors (block list and
// cleanup list; DDC structures register no cleanups, so in practice only
// the block list grows), which grow geometrically: at most one
// reallocation per doubling each. The same-sized warm-up batch leaves each list about as
// long as the measured batch grows it, so the batch measures 1-2
// reallocations in total.
constexpr int64_t kBookkeepingSlack = 16;

struct Geometry {
  int dims;
  int64_t side;
  int elide_levels;
};

class AllocFreeTest : public ::testing::TestWithParam<Geometry> {
 protected:
  // `count` random cells whose every coordinate lies in [lo, lo + span).
  std::vector<Cell> RandomCells(size_t count, int64_t lo, int64_t span) {
    std::uniform_int_distribution<int64_t> coord(lo, lo + span - 1);
    std::vector<Cell> cells;
    for (size_t i = 0; i < count; ++i) {
      Cell cell(static_cast<size_t>(GetParam().dims));
      for (Coord& c : cell) c = coord(rng_);
      cells.push_back(cell);
    }
    return cells;
  }

  std::mt19937_64 rng_{20240607};
};

TEST_P(AllocFreeTest, MaterializingBatchCostsOnlyArenaBlocks) {
  const Geometry g = GetParam();
  DdcOptions options;
  options.elide_levels = g.elide_levels;
  OwnedDdcCore core(g.dims, g.side, options, nullptr);
  const size_t batch = 256;
  const std::vector<int64_t> deltas(batch, 3);

  // Warm-up in the low half of the domain: creates the core's write
  // scratch and resolves every lazily initialized registry handle.
  core.AddBatch(RandomCells(batch, 0, g.side / 2), deltas);

  // A same-sized batch into the untouched high half materializes fresh
  // nodes, boxes, faces (nested cores and B_c trees) and leaf blocks.
  const std::vector<Cell> fresh = RandomCells(batch, g.side / 2, g.side / 2);
  const size_t blocks_before = core.arena()->num_blocks();
  const int64_t allocations =
      CountAllocations([&] { core.AddBatch(fresh, deltas); });
  const int64_t new_blocks =
      static_cast<int64_t>(core.arena()->num_blocks() - blocks_before);
  EXPECT_GT(new_blocks, 0);
  EXPECT_LE(allocations, new_blocks + kBookkeepingSlack)
      << "dims=" << g.dims << " new arena blocks=" << new_blocks;
  EXPECT_EQ(core.TotalSum(), 2 * static_cast<int64_t>(batch) * 3);
}

TEST_P(AllocFreeTest, MaterializedCellsAllocateNothing) {
  const Geometry g = GetParam();
  DdcOptions options;
  options.elide_levels = g.elide_levels;
  OwnedDdcCore core(g.dims, g.side, options, nullptr);
  const std::vector<Cell> cells = RandomCells(128, 0, g.side);
  std::vector<int64_t> deltas(cells.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = static_cast<int64_t>(i % 7) - 3;
  }
  std::vector<int64_t> out(cells.size());

  // Materialize every cell the checks below touch and warm all scratch
  // (the core's write scratch, the thread-local batched-query pool).
  for (const Cell& cell : cells) core.Add(cell, 1);
  core.AddBatch(cells, deltas);
  core.PrefixSumBatch(cells, out);

  EXPECT_EQ(CountAllocations([&] {
              for (const Cell& cell : cells) core.Add(cell, 2);
            }),
            0);
  EXPECT_EQ(CountAllocations([&] { core.AddBatch(cells, deltas); }), 0);
  int64_t sum = 0;
  EXPECT_EQ(CountAllocations([&] {
              for (const Cell& cell : cells) sum += core.PrefixSum(cell);
            }),
            0);
  EXPECT_EQ(CountAllocations([&] { core.PrefixSumBatch(cells, out); }), 0);

  // The walks still answer correctly.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(out[i], core.PrefixSum(cells[i]));
  }
  EXPECT_NE(sum, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AllocFreeTest,
    ::testing::Values(Geometry{2, 256, 0}, Geometry{2, 256, 1},
                      Geometry{3, 64, 0}, Geometry{3, 64, 1},
                      Geometry{4, 16, 0}, Geometry{4, 16, 1}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::string("d") + std::to_string(info.param.dims) + "_side" +
             std::to_string(info.param.side) + "_elide" +
             std::to_string(info.param.elide_levels);
    });

TEST(AllocFreeLayoutTest, CoreHeaderFitsTwoCacheLines) {
  // Every box of a d >= 3 cube holds d nested cores.
  EXPECT_LE(sizeof(DdcCore), 128u);
  // Every box of a 2-D cube (or nested 2-D face core) holds two B_c faces.
  EXPECT_LE(sizeof(FaceStore), 24u);
}

// The parser lexes tokens as views into the text, so a statement costs
// only what it holds: a point write its batch (sized once) and one Cell per
// target, reserved to the first target's arity (the first one grows to it),
// and a read its predicate list.
constexpr int64_t kTargets = 32;

// A 2-D point ADD of kTargets cells spread over [0, 1024)^2 (both halves of
// dimension 0, so both shards of a 2-shard side-1024 cube).
std::string WriteStatementText() {
  std::string write = "ADD";
  for (int64_t i = 0; i < kTargets; ++i) {
    write += (i == 0 ? " AT [" : ", AT [") + std::to_string(i * 31 % 1024) +
             ", " + std::to_string(i * 17 % 1024) + "] = " +
             std::to_string(i - 5);
  }
  return write;
}

TEST(AllocFreeParseTest, StatementAllocatesOnlyWhatItHolds) {
  const std::string write = WriteStatementText();
  const std::string read = "SUM WHERE d0 IN [12, 400] AND d1 IN [3, 77]";
  std::string error;

  std::optional<Statement> st;
  EXPECT_LE(CountAllocations([&] { st = ParseStatement(write, &error); }),
            kTargets + 2);
  ASSERT_TRUE(st.has_value()) << error;
  ASSERT_EQ(st->write->mutations.size(), static_cast<size_t>(kTargets));
  EXPECT_EQ(st->write->mutations[31].cell, (Cell{31 * 31 % 1024, 31 * 17}));

  st.reset();
  EXPECT_LE(CountAllocations([&] { st = ParseStatement(read, &error); }), 2);
  ASSERT_TRUE(st.has_value()) << error;
  EXPECT_EQ(QueryToString(*st->query), read);
}

// A 2-shard side-1024 ShardedCube next to one DynamicDataCube per shard
// that receives the same groups the shard cubes do, so the two sides hold
// identical trees and the shard layer's own allocations are the
// difference.
class AllocFreeShardedTest : public ::testing::Test {
 protected:
  static DdcOptions ShardOptions() {
    DdcOptions options;
    options.enable_counters = false;  // As ShardedCube runs its shards.
    return options;
  }

  // Splits `batch` into the shard groups, in batch order.
  void SplitGroups(const MutationBatch& batch) {
    for (int s = 0; s < 2; ++s) {
      groups_[s].clear();
      for (const Mutation& m : batch) {
        if (sharded_.ShardOf(m.cell) == s) groups_[s].push_back(m);
      }
    }
  }

  void ApplyToMirrors(const MutationBatch& batch) {
    SplitGroups(batch);
    for (int s = 0; s < 2; ++s) ASSERT_TRUE(mirrors_[s].ApplyBatch(groups_[s]));
  }

  // Applies `batch`'s groups to the mirrors and returns the allocations
  // their batched applies made.
  int64_t MirrorAllocations(const MutationBatch& batch) {
    SplitGroups(batch);
    return CountAllocations([&] {
      for (int s = 0; s < 2; ++s) mirrors_[s].ApplyBatch(groups_[s]);
    });
  }

  ShardedCube sharded_{2, 1024, 2};
  DynamicDataCube mirrors_[2] = {DynamicDataCube(2, 1024, ShardOptions()),
                                 DynamicDataCube(2, 1024, ShardOptions())};
  MutationBatch groups_[2];
};

// A steady-state 32-point write over both shards allocates nothing in the
// shard layer: the mutations are routed by index and gathered into
// per-thread slices whose Cells keep their capacity. (A router that copied
// every mutation and its Cell into a per-shard MutationBatch made 118
// allocations against the shard cubes' 72.)
TEST_F(AllocFreeShardedTest, RoutingAddsNothingToTheShardCubes) {
  std::string error;
  const std::optional<Statement> st =
      ParseStatement(WriteStatementText(), &error);
  ASSERT_TRUE(st.has_value()) << error;
  const MutationBatch& batch = st->write->mutations;
  // Materialize every cell and warm every scratch on both sides.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(sharded_.ApplyBatch(batch));
    ApplyToMirrors(batch);
  }
  ASSERT_FALSE(groups_[0].empty());
  ASSERT_FALSE(groups_[1].empty());

  const int64_t shard_cubes = MirrorAllocations(batch);
  const int64_t routed =
      CountAllocations([&] { ASSERT_TRUE(sharded_.ApplyBatch(batch)); });
  EXPECT_LE(routed, shard_cubes);
  for (int s = 0; s < 2; ++s) {
    for (const Mutation& m : groups_[s]) {
      EXPECT_EQ(sharded_.Get(m.cell), mirrors_[s].Get(m.cell));
    }
  }
}

// A steady-state RangeSumBatch allocates nothing in the shard layer at
// S = 1 and S = 2: boxes are routed by index, a group that is the whole
// batch reads the caller's span, and other groups gather into per-thread
// buffers that keep their capacity. Covers one box inside one slab, one
// box straddling both slabs and a 64-box batch. (A router that copied
// every box into per-shard vectors made 33 allocations on the one-box read
// against the shard cube's 25.)
TEST(AllocFreeShardedReadTest, ReadRoutingAddsNothingToTheShardCubes) {
  constexpr int64_t kSide = 1024;
  std::mt19937_64 rng(20240607);
  std::uniform_int_distribution<int64_t> coord(0, kSide - 1);
  std::vector<Box> many;
  for (int q = 0; q < 64; ++q) {
    const int64_t x = coord(rng);
    const int64_t y = coord(rng);
    many.push_back(Box{{x, y},
                       {std::min(kSide - 1, x + coord(rng) / 2),
                        std::min(kSide - 1, y + coord(rng) / 2)}});
  }
  const std::vector<std::vector<Box>> batches = {
      {Box{{10, 10}, {300, 900}}}, {Box{{100, 0}, {900, 1023}}}, many};
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    DdcOptions options;
    options.enable_counters = false;  // As ShardedCube runs its shards.
    ShardedCube sharded(2, kSide, shards);
    std::vector<std::unique_ptr<DynamicDataCube>> mirrors;
    for (int s = 0; s < shards; ++s) {
      mirrors.push_back(std::make_unique<DynamicDataCube>(2, kSide, options));
    }
    for (int i = 0; i < 2000; ++i) {
      const Cell cell{coord(rng), coord(rng)};
      sharded.Add(cell, 1 + i % 7);
      mirrors[static_cast<size_t>(sharded.ShardOf(cell))]->Add(cell,
                                                               1 + i % 7);
    }
    for (const std::vector<Box>& boxes : batches) {
      // Shard s's group: the boxes reaching its slabs, whole (no box of a
      // side-1024 cube spans fewer slabs than shards and more than one).
      std::vector<std::vector<Box>> groups(static_cast<size_t>(shards));
      for (const Box& box : boxes) {
        for (int s = sharded.ShardOf(box.lo); s <= sharded.ShardOf(box.hi);
             ++s) {
          groups[static_cast<size_t>(s)].push_back(box);
        }
      }
      std::vector<std::vector<int64_t>> partial(groups.size());
      std::vector<int64_t> out(boxes.size());
      const auto read_mirrors = [&] {
        for (size_t s = 0; s < groups.size(); ++s) {
          partial[s].resize(groups[s].size());
          mirrors[s]->RangeSumBatch(groups[s], partial[s]);
        }
      };
      // Warm every scratch on both sides.
      for (int round = 0; round < 2; ++round) {
        sharded.RangeSumBatch(boxes, out);
        read_mirrors();
      }
      const int64_t shard_cubes = CountAllocations(read_mirrors);
      const int64_t routed =
          CountAllocations([&] { sharded.RangeSumBatch(boxes, out); });
      EXPECT_LE(routed, shard_cubes) << boxes.size() << " boxes";
      for (size_t q = 0; q < boxes.size(); ++q) {
        int64_t expected = 0;
        for (const std::unique_ptr<DynamicDataCube>& mirror : mirrors) {
          expected += mirror->RangeSum(boxes[q]);
        }
        EXPECT_EQ(out[q], expected) << boxes[q].ToString();
      }
    }
  }
}

// The whole statement path: parse -> CachedCube -> ShardedCube -> DDC. It
// costs the parser's n + 2, the shard cubes' batched applies and the
// cache's invalidation pass, whose two allocations are the dirty-bounds
// corners it copies (measured with live entries to invalidate). Nothing
// more: over the copying router the same statement made 154 allocations
// against the bound's 108.
TEST_F(AllocFreeShardedTest, StatementPathStaysWithinItsLayers) {
  constexpr int64_t kCacheAllocations = 2;
  CachedCube cached(&sharded_);
  const std::string text = WriteStatementText();
  const std::vector<Box> reads = {Box{{0, 0}, {600, 600}},
                                  Box{{100, 200}, {900, 1000}},
                                  Box{{513, 0}, {1023, 1023}}};
  std::string error;
  std::optional<Statement> st;
  const auto write = [&] {
    st = ParseStatement(text, &error);
    ASSERT_TRUE(st.has_value()) << error;
    ASSERT_TRUE(ExecuteWrite(*st->write, &cached).ok);
  };
  // Warm the cache's and the shard layer's scratch; keep the mirrors level.
  for (int round = 0; round < 2; ++round) {
    for (const Box& box : reads) (void)cached.RangeSum(box);
    write();
    ApplyToMirrors(st->write->mutations);
  }
  for (const Box& box : reads) (void)cached.RangeSum(box);
  st.reset();
  const int64_t path = CountAllocations(write);
  const int64_t shard_cubes = MirrorAllocations(st->write->mutations);
  EXPECT_LE(path, (kTargets + 2) + shard_cubes + kCacheAllocations)
      << "shard cubes " << shard_cubes;
  for (const Box& box : reads) {
    EXPECT_EQ(cached.RangeSum(box),
              mirrors_[0].RangeSum(box) + mirrors_[1].RangeSum(box));
  }
}

// A 200k-point batch over two shards (the concurrent_mix preload) holds at
// most a slice of scratch per shard at any moment, beyond the arena its
// new cells need and the routing index: one Routed entry, one order slot
// and one Z-order slot, 16 bytes, per mutation. Per mutation of a slice
// the shard layer's gather holds a Mutation and its Cell, and the shard
// cube its coalesce entry, map node and bucket, the descent's cell list
// and its reusable AddBatch items (two per update): under 512 bytes for
// 2-D cells. Copied
// into per-shard batches and applied unsliced, the same batch peaked
// 58.2 MB above its arena against this bound's 8.4 MB.
TEST_F(AllocFreeShardedTest, LargeBatchHoldsBoundedSlices) {
  constexpr size_t kCells = 200000;
  constexpr int64_t kPerSliceMutation = 512;
  constexpr int64_t kSlack = int64_t{1} << 20;
  std::mt19937_64 rng(20240607);
  std::uniform_int_distribution<int64_t> coord(0, 1023);
  MutationBatch batch(kCells);
  for (Mutation& m : batch) {
    m.cell = {coord(rng), coord(rng)};
    m.delta = 1 + coord(rng) % 100;
  }
  const int64_t arena_before = sharded_.Stats().arena_bytes_reserved;
  const int64_t live_before = ResetHeapPeak();
  ASSERT_TRUE(sharded_.ApplyBatch(batch));
  const int64_t high_water =
      g_peak_bytes.load(std::memory_order_relaxed) - live_before;
  const int64_t arena = sharded_.Stats().arena_bytes_reserved - arena_before;
  const int64_t bound =
      static_cast<int64_t>(kCells) * 16 +
      2 * static_cast<int64_t>(ShardedCube::kApplySlice) * kPerSliceMutation +
      kSlack;
  EXPECT_LE(high_water - arena, bound)
      << "high water " << high_water << " arena " << arena;

  int64_t total = 0;
  for (const Mutation& m : batch) total += m.delta;
  EXPECT_EQ(sharded_.TotalSum(), total);
}

}  // namespace
}  // namespace ddc
