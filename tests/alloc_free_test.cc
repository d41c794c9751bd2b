// Heap-allocation contract of the DDC write and read paths and of the
// statement parser.
//
// This binary replaces the global operator new with a counting one, so it
// is built as its own test executable. It pins four properties:
//   * leaf blocks are arena slabs and nested face cores carry no heap
//     scratch, so materializing new cells costs only arena blocks (plus the
//     geometric growth of the arena's bookkeeping vectors);
//   * once the touched cells exist, Add / AddBatch / PrefixSum /
//     PrefixSumBatch allocate nothing;
//   * a DdcCore header (one per nested face) stays within 128 bytes, and a
//     face (a B_c tree held inline) within 24;
//   * parsing a statement allocates only the Statement it returns.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cell.h"
#include "ddc/ddc_core.h"
#include "ddc/ddc_options.h"
#include "query/parser.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
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
      return "d" + std::to_string(info.param.dims) + "_side" +
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
TEST(AllocFreeParseTest, StatementAllocatesOnlyWhatItHolds) {
  constexpr int64_t kTargets = 32;
  std::string write = "ADD";
  for (int64_t i = 0; i < kTargets; ++i) {
    write += (i == 0 ? " AT [" : ", AT [") + std::to_string(i * 31 % 1024) +
             ", " + std::to_string(i * 17 % 1024) + "] = " +
             std::to_string(i - 5);
  }
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

}  // namespace
}  // namespace ddc
