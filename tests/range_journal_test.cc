// The range-add journal of DynamicDataCube (DESIGN.md §12): pending
// entries answered by a scan, folded one at a time into the 2^d overlay
// trees once more than Crossover(d, side) are pending.
//
// The wall drives 1-, 2- and 3-D cubes from below the crossover, through
// it, to well past it (so hundreds of single-entry folds happen), with
// negative coordinates, growth and ShrinkToFit between folds, point writes
// next to the boxes, and boxes that cancel out — and compares every cell,
// random range sums and the nonzero walk with a NaiveCube oracle; after
// every range-add it checks that no more than Crossover(d, side) entries
// are pending. A second suite races readers of a one-shard ShardedCube
// (the coarse configuration) against range-add writers across folds.
// Replay any failure with DDC_TEST_SEED=<logged seed>.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cell.h"
#include "common/range.h"
#include "common/shape.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "test_seed.h"

namespace ddc {
namespace {

int64_t PlanOverlayTrees(const DynamicDataCube& cube) {
  const Box all{cube.DomainLo(), cube.DomainHi()};
  return cube.PlanRangeSumBatch(std::span<const Box>(&all, 1)).overlay_trees;
}

TEST(RangeJournalTest, CrossoverIsTheClosedFormCostBound) {
  EXPECT_EQ(DynamicDataCube::Crossover(1, 2), 2);
  EXPECT_EQ(DynamicDataCube::Crossover(1, 4096), 24);
  EXPECT_EQ(DynamicDataCube::Crossover(2, 1024), 400);
  EXPECT_EQ(DynamicDataCube::Crossover(3, 64), 1728);
  EXPECT_EQ(DynamicDataCube::Crossover(3, 4), 64);
}

// Exactly Crossover entries stay pending with no tree built; the next
// range-add folds the oldest one and the plan switches to 2^d trees.
TEST(RangeJournalTest, FirstFoldHappensOnTheCrossoverPlusOneEntry) {
  struct Config {
    int dims;
    int64_t side;
  };
  for (const Config cfg : {Config{1, 16}, Config{2, 8}, Config{3, 4}}) {
    SCOPED_TRACE("dims=" + std::to_string(cfg.dims));
    std::mt19937_64 rng(TestSeed(4242) + static_cast<uint64_t>(cfg.dims));
    DynamicDataCube cube(cfg.dims, cfg.side);
    NaiveCube oracle(Shape::Cube(cfg.dims, cfg.side));
    const int64_t crossover = DynamicDataCube::Crossover(cfg.dims, cfg.side);
    EXPECT_EQ(PlanOverlayTrees(cube), 0);
    for (int64_t n = 1; n <= crossover + 40; ++n) {
      Box box{Cell(static_cast<size_t>(cfg.dims)),
              Cell(static_cast<size_t>(cfg.dims))};
      const auto side = static_cast<uint64_t>(cfg.side);
      for (int i = 0; i < cfg.dims; ++i) {
        const size_t ui = static_cast<size_t>(i);
        const auto a = static_cast<Coord>(rng() % side);
        const auto b = static_cast<Coord>(rng() % side);
        box.lo[ui] = std::min(a, b);
        box.hi[ui] = std::max(a, b);
      }
      const int64_t delta = static_cast<int64_t>(rng() % 9) + 1;
      cube.RangeAdd(box, delta);
      oracle.RangeAdd(box, delta);
      ASSERT_EQ(cube.side(), cfg.side);  // In-domain boxes: no re-root.
      EXPECT_EQ(cube.PendingRangeAdds(), std::min(n, crossover)) << n;
      EXPECT_EQ(PlanOverlayTrees(cube), n <= crossover ? 0 : 1 << cfg.dims)
          << n;
      if (n >= crossover - 1 && n <= crossover + 1) {
        const Box all{cube.DomainLo(), cube.DomainHi()};
        EXPECT_EQ(cube.RangeSum(all), oracle.RangeSum(all)) << n;
        EXPECT_EQ(cube.Get(box.lo), oracle.Get(box.lo)) << n;
      }
    }
  }
}

// Oracle space is [0, S)^d; the cube sees it shifted down by S/2 so that
// half of every axis is negative and the domain grows in both directions.
struct WallConfig {
  int dims;
  Coord oracle_side;
  int range_adds;
};

class JournalWall {
 public:
  JournalWall(const WallConfig& cfg, uint64_t seed)
      : cfg_(cfg),
        rng_(seed),
        shift_(cfg.oracle_side / 2),
        cube_(cfg.dims, 2),
        oracle_(Shape::Cube(cfg.dims, cfg.oracle_side)) {}

  void Run() {
    int64_t folds = 0;
    bool folded_once = false;
    for (int n = 1; n <= cfg_.range_adds; ++n) {
      const int64_t pending_before = cube_.PendingRangeAdds();
      const int64_t side_before = cube_.side();
      ApplyOneRangeAdd();
      const int64_t pending_after = cube_.PendingRangeAdds();
      ASSERT_LE(pending_after, DynamicDataCube::Crossover(cfg_.dims,
                                                          cube_.side()));
      // A range-add never shrinks the cube, so it folds at most one entry.
      ASSERT_GE(cube_.side(), side_before);
      const int64_t folded_now = pending_before + 1 - pending_after;
      ASSERT_TRUE(folded_now == 0 || folded_now == 1) << folded_now;
      folds += folded_now;
      const bool first_fold = folded_now == 1 && !folded_once;
      folded_once = folded_once || folded_now == 1;
      if (rng_() % 3 == 0) ApplyOnePoint();
      if (n % 97 == 0) {
        cube_.ShrinkToFit();
        ASSERT_LE(cube_.PendingRangeAdds(),
                  DynamicDataCube::Crossover(cfg_.dims, cube_.side()));
      }
      if (first_fold || n % 61 == 0 || n == cfg_.range_adds) {
        Check("n=" + std::to_string(n));
      }
    }
    // Well past the crossover: the trees took many single-entry folds.
    EXPECT_GT(folds, cfg_.range_adds / 4);
    cube_.ShrinkToFit();
    Check("final shrink");
  }

 private:
  Coord RandomCoord() {
    return static_cast<Coord>(rng_() %
                              static_cast<uint64_t>(cfg_.oracle_side));
  }

  Box ToCube(const Box& oracle_box) const {
    Box box = oracle_box;
    for (Coord& c : box.lo) c -= shift_;
    for (Coord& c : box.hi) c -= shift_;
    return box;
  }

  void ApplyOneRangeAdd() {
    Box box;
    int64_t delta;
    if (!history_.empty() && rng_() % 5 == 0) {
      // Cancel an earlier box (possibly already folded) exactly.
      const auto& [old_box, old_delta] = history_[rng_() % history_.size()];
      box = old_box;
      delta = -old_delta;
    } else {
      const size_t d = static_cast<size_t>(cfg_.dims);
      box = Box{Cell(d), Cell(d)};
      const Coord max_extent = rng_() % 4 == 0 ? cfg_.oracle_side : 4;
      for (size_t i = 0; i < d; ++i) {
        box.lo[i] = RandomCoord();
        box.hi[i] = std::min<Coord>(
            cfg_.oracle_side - 1,
            box.lo[i] + static_cast<Coord>(rng_() % static_cast<uint64_t>(
                                                        max_extent)));
      }
      delta = static_cast<int64_t>(rng_() % 19) - 9;
      if (delta == 0) delta = 1;
    }
    history_.emplace_back(box, delta);
    cube_.RangeAdd(ToCube(box), delta);
    oracle_.RangeAdd(box, delta);
  }

  void ApplyOnePoint() {
    Cell cell(static_cast<size_t>(cfg_.dims));
    for (Coord& c : cell) c = RandomCoord();
    const int64_t delta = static_cast<int64_t>(rng_() % 11) - 5;
    oracle_.Add(cell, delta);
    for (Coord& c : cell) c -= shift_;
    cube_.Add(cell, delta);
  }

  void Check(const std::string& label) {
    SCOPED_TRACE(label);
    const int d = cfg_.dims;
    const Box domain{UniformCell(d, 0), UniformCell(d, cfg_.oracle_side - 1)};
    int64_t total = 0;
    int64_t nonzero = 0;
    ForEachCellInBox(domain, [&](const Cell& cell) {
      const int64_t want = oracle_.Get(cell);
      total += want;
      if (want != 0) ++nonzero;
      ASSERT_EQ(cube_.Get(ToCube(Box{cell, cell}).lo), want)
          << CellToString(cell);
    });
    EXPECT_EQ(cube_.TotalSum(), total);
    // Random boxes through the single and the batched read paths.
    std::vector<Box> boxes;
    for (int q = 0; q < 24; ++q) {
      Box box{Cell(static_cast<size_t>(d)), Cell(static_cast<size_t>(d))};
      for (size_t i = 0; i < static_cast<size_t>(d); ++i) {
        const Coord a = RandomCoord();
        const Coord b = RandomCoord();
        box.lo[i] = std::min(a, b);
        box.hi[i] = std::max(a, b);
      }
      boxes.push_back(box);
    }
    std::vector<Box> cube_boxes;
    for (const Box& box : boxes) cube_boxes.push_back(ToCube(box));
    std::vector<int64_t> batched(boxes.size());
    cube_.RangeSumBatch(cube_boxes, batched);
    for (size_t q = 0; q < boxes.size(); ++q) {
      const int64_t want = oracle_.RangeSum(boxes[q]);
      EXPECT_EQ(batched[q], want) << boxes[q].ToString();
      EXPECT_EQ(cube_.RangeSum(cube_boxes[q]), want) << boxes[q].ToString();
    }
    // The nonzero walk: oracle values, each cell once, nothing missing.
    std::map<Cell, int64_t> walked;
    cube_.ForEachNonZero([&](const Cell& cell, int64_t value) {
      EXPECT_NE(value, 0);
      EXPECT_TRUE(walked.emplace(cell, value).second) << CellToString(cell);
      Cell oracle_cell = cell;
      for (Coord& c : oracle_cell) c += shift_;
      EXPECT_EQ(value, oracle_.Get(oracle_cell)) << CellToString(cell);
    });
    EXPECT_EQ(static_cast<int64_t>(walked.size()), nonzero);
  }

  WallConfig cfg_;
  std::mt19937_64 rng_;
  Coord shift_;
  DynamicDataCube cube_;
  NaiveCube oracle_;
  std::vector<std::pair<Box, int64_t>> history_;
};

TEST(RangeJournalTest, DifferentialAcrossTheCrossoverWithGrowthAndShrink) {
  const uint64_t seed = TestSeed(20261017);
  // Crossover at the largest side each cube reaches: 1-D side 64 -> 12,
  // 2-D side 32 -> 100, 3-D side 16 -> 512; every run goes well past it.
  for (const WallConfig cfg : {WallConfig{1, 40, 400},
                               WallConfig{2, 24, 700},
                               WallConfig{3, 10, 1600}}) {
    SCOPED_TRACE("dims=" + std::to_string(cfg.dims));
    JournalWall wall(cfg, seed + static_cast<uint64_t>(cfg.dims));
    wall.Run();
  }
}

// After a shrink lowers the crossover, the surplus pending entries fold so
// at most Crossover(d, side) stay pending; growth leaves them alone.
TEST(RangeJournalTest, ShrinkFoldsDownToTheLowerCrossover) {
  DynamicDataCube cube(2, 64);  // Crossover 4 * 6^2 = 144.
  for (int n = 0; n < 120; ++n) {
    cube.RangeAdd(Box{{n % 3, n % 2}, {2 + n % 3, 3}}, 1 + n % 4);
  }
  EXPECT_EQ(cube.PendingRangeAdds(), 120);
  EXPECT_EQ(PlanOverlayTrees(cube), 0);
  const int64_t total = cube.TotalSum();
  const int64_t cell = cube.Get({2, 3});
  cube.ShrinkToFit();  // Hull 0..5 x 0..4 -> side 8, crossover 36.
  EXPECT_EQ(cube.side(), 8);
  EXPECT_EQ(cube.PendingRangeAdds(), DynamicDataCube::Crossover(2, 8));
  EXPECT_EQ(PlanOverlayTrees(cube), 4);
  EXPECT_EQ(cube.TotalSum(), total);
  EXPECT_EQ(cube.Get({2, 3}), cell);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {7, 7}}), total);
  cube.Add({100, 100}, 1);  // Growth: nothing folds.
  EXPECT_EQ(cube.PendingRangeAdds(), DynamicDataCube::Crossover(2, 8));
  EXPECT_EQ(cube.Get({2, 3}), cell);
  EXPECT_EQ(cube.TotalSum(), total + 1);
}

// A box folded before a shrink and cancelled by a still-pending box after
// it: each layer alone reaches below the new origin, only their sum is 0.
TEST(RangeJournalTest, CancellationAcrossTheFoldSurvivesShrink) {
  DynamicDataCube cube(1, 16);  // Crossover 2 * 4 = 8.
  const Box wide{{0}, {10}};
  cube.RangeAdd(wide, 5);
  for (int n = 0; n < 8; ++n) cube.RangeAdd(Box{{6}, {7}}, 1);  // Folds wide.
  EXPECT_EQ(PlanOverlayTrees(cube), 2);
  cube.RangeAdd(wide, -5);  // Pending; cancels the folded box.
  cube.ShrinkToFit();       // Hull is [6, 8]: origin moves to 6.
  EXPECT_EQ(cube.DomainLo(), Cell{6});
  EXPECT_EQ(cube.Get({6}), 8);
  EXPECT_EQ(cube.Get({7}), 8);
  EXPECT_EQ(cube.Get({8}), 0);
  EXPECT_EQ(cube.RangeSum(Box{{6}, {7}}), 16);
  EXPECT_EQ(cube.TotalSum(), 16);
  cube.Add({-20}, 3);  // Growth back below the old origin.
  EXPECT_EQ(cube.Get({0}), 0);
  EXPECT_EQ(cube.RangeSum(Box{{-20}, {20}}), 19);
}

// Readers race range-add writers (and a growth writer) across many folds.
// With one shard each RangeSumBatch takes one shared lock, so the two
// halves of a split box must always add up to the whole; sums only grow
// (every delta is positive); and the final state matches an oracle of all
// writes.
TEST(RangeJournalConcurrentTest, ReadersRaceWritersAcrossFolds) {
  constexpr int kDims = 2;
  constexpr Coord kSide = 16;  // Crossover 4 * 4^2 = 64.
  constexpr int kWriters = 2;
  constexpr int kAddsPerWriter = 200;
  ShardedCube cube(kDims, kSide, 1);
  const uint64_t seed = TestSeed(777);

  // Each writer's boxes are drawn up front so the oracle can replay them.
  std::vector<std::vector<std::pair<Box, int64_t>>> ops(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    std::mt19937_64 rng(seed + static_cast<uint64_t>(w));
    for (int n = 0; n < kAddsPerWriter; ++n) {
      Box box{Cell(kDims), Cell(kDims)};
      for (size_t i = 0; i < kDims; ++i) {
        box.lo[i] = static_cast<Coord>(rng() % kSide);
        box.hi[i] = std::min<Coord>(kSide - 1,
                                    box.lo[i] + static_cast<Coord>(rng() % 6));
      }
      // One box in 40 lands far out and forces a growth re-root.
      if (n % 40 == 39) box.hi[0] += 4 * kSide * (w + 1);
      ops[static_cast<size_t>(w)].emplace_back(
          box, static_cast<int64_t>(rng() % 5) + 1);
    }
  }

  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<int> readers_started{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Writes are quick; hold them until every reader is reading.
      while (readers_started.load() < kReaders) std::this_thread::yield();
      for (const auto& [box, delta] : ops[static_cast<size_t>(w)]) {
        cube.RangeAdd(box, delta);
      }
    });
  }
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      const Box whole{{-1000, -1000}, {1000, 1000}};
      const Box left{{-1000, -1000}, {7, 1000}};
      const Box right{{8, -1000}, {1000, 1000}};
      const std::vector<Box> boxes{whole, left, right};
      std::vector<int64_t> out(boxes.size());
      int64_t last = 0;
      while (!done.load()) {
        cube.RangeSumBatch(boxes, out);
        EXPECT_EQ(out[0], out[1] + out[2]);
        EXPECT_GE(out[0], last);
        last = out[0];
        EXPECT_GE(cube.Get({3, 3}), 0);
        if (reads.fetch_add(1) < kReaders) readers_started.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);

  // Final state against the oracle (shifted: growth only goes up and right).
  constexpr Coord kOracleSide = kSide * 12;
  NaiveCube oracle(Shape::Cube(kDims, kOracleSide));
  for (const auto& writer_ops : ops) {
    for (const auto& [box, delta] : writer_ops) oracle.RangeAdd(box, delta);
  }
  EXPECT_EQ(cube.TotalSum(),
            oracle.RangeSum(Box{UniformCell(kDims, 0),
                                UniformCell(kDims, kOracleSide - 1)}));
  for (Coord x = 0; x < kOracleSide; x += 3) {
    for (Coord y = 0; y < kSide; ++y) {
      ASSERT_EQ(cube.Get({x, y}), oracle.Get({x, y}));
    }
  }
}

}  // namespace
}  // namespace ddc
