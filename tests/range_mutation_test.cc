// Differential + property wall for first-class range mutations.
//
// Every cube implementation that accepts kRangeAdd/kRangeSet — through the
// CubeInterface default loop, the DDC's signed-corner overlay, the sharded
// per-slab write decomposition (at one shard, the coarse configuration, and
// at several) and the WAL'd durable cube — must be value-for-value
// indistinguishable from a naive array oracle fed the very same mixed
// point/range traffic. The suite
// drives seeded random interleavings (empty, single-cell, full-cube and
// out-of-domain-clipped boxes included), compares full cube state at
// checkpoints, and separately property-checks BuildCoalesceProgram against
// cell-by-cell sequential application. Replay any failure with
// DDC_TEST_SEED=<logged seed>.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/range.h"
#include "common/shape.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"
#include "test_seed.h"
#include "wal/cube_log.h"

namespace ddc {
namespace {

Cell RandomCellIn(std::mt19937_64& rng, int dims, Coord lo, Coord hi) {
  Cell cell(static_cast<size_t>(dims));
  for (Coord& c : cell) {
    c = lo + static_cast<Coord>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
  return cell;
}

// A box inside [0, side)^dims. Mix of shapes: mostly small boxes, sometimes
// a single cell, sometimes the full domain, sometimes inverted (empty).
Box RandomBoxIn(std::mt19937_64& rng, int dims, Coord side) {
  switch (rng() % 8) {
    case 0: {  // Single cell.
      Cell c = RandomCellIn(rng, dims, 0, side - 1);
      return Box{c, c};
    }
    case 1:  // Full domain.
      return Box{UniformCell(dims, 0), UniformCell(dims, side - 1)};
    case 2: {  // Inverted somewhere: empty, must be a no-op.
      Box box{RandomCellIn(rng, dims, 0, side - 1),
              RandomCellIn(rng, dims, 0, side - 1)};
      box.lo[rng() % static_cast<uint64_t>(dims)] = side - 1;
      box.hi[rng() % static_cast<uint64_t>(dims)] = 0;
      return box;
    }
    default: {  // Small box anchored anywhere.
      Box box;
      box.lo = RandomCellIn(rng, dims, 0, side - 1);
      box.hi = box.lo;
      for (int i = 0; i < dims; ++i) {
        size_t ui = static_cast<size_t>(i);
        box.hi[ui] = std::min<Coord>(side - 1,
                                     box.lo[ui] + static_cast<Coord>(rng() % 7));
      }
      return box;
    }
  }
}

// One mixed batch: points (kAdd/kSet) interleaved with ranges
// (kRangeAdd/kRangeSet), including zero deltas/values.
MutationBatch RandomMixedBatch(std::mt19937_64& rng, int dims, Coord side) {
  MutationBatch batch;
  const size_t n = 1 + rng() % 8;
  for (size_t i = 0; i < n; ++i) {
    const int64_t value = static_cast<int64_t>(rng() % 19) - 9;
    switch (rng() % 5) {
      case 0:
        batch.push_back(Mutation{RandomCellIn(rng, dims, 0, side - 1), value,
                                 MutationKind::kAdd});
        break;
      case 1:
        batch.push_back(Mutation{RandomCellIn(rng, dims, 0, side - 1), value,
                                 MutationKind::kSet});
        break;
      case 2: {
        Box box = RandomBoxIn(rng, dims, side);
        batch.push_back(MakeRangeAdd(box.lo, box.hi, value));
        break;
      }
      default: {
        Box box = RandomBoxIn(rng, dims, side);
        batch.push_back(MakeRangeSet(box.lo, box.hi, value));
        break;
      }
    }
  }
  return batch;
}

// Full-state comparison against the oracle: every cell of the oracle's
// domain via Get, the total, and a handful of random range sums.
template <typename CubeT>
void ExpectMatchesOracle(const CubeT& cube, const NaiveCube& oracle,
                         std::mt19937_64& rng, const std::string& label) {
  const int dims = oracle.dims();
  const Coord side = oracle.DomainHi()[0] + 1;
  const Box domain{UniformCell(dims, 0), UniformCell(dims, side - 1)};
  int64_t oracle_total = 0;
  ForEachCellInBox(domain, [&](const Cell& cell) {
    const int64_t want = oracle.Get(cell);
    oracle_total += want;
    ASSERT_EQ(cube.Get(cell), want)
        << label << ": cell " << CellToString(cell);
  });
  EXPECT_EQ(cube.TotalSum(), oracle_total) << label;
  for (int q = 0; q < 12; ++q) {
    const Box box = RandomBoxIn(rng, dims, side);
    EXPECT_EQ(cube.RangeSum(box), oracle.RangeSum(box))
        << label << ": box " << box.ToString();
  }
}

// ForEachNonZero must agree with the oracle too: every emitted cell carries
// the oracle's value, each cell at most once, and the nonzero counts match.
template <typename CubeT>
void ExpectNonZeroWalkMatches(const CubeT& cube, const NaiveCube& oracle,
                              const std::string& label) {
  std::map<Cell, int64_t> walked;
  cube.ForEachNonZero([&](const Cell& cell, int64_t value) {
    EXPECT_NE(value, 0) << label;
    EXPECT_TRUE(walked.emplace(cell, value).second)
        << label << ": duplicate cell " << CellToString(cell);
    EXPECT_EQ(value, oracle.Get(cell))
        << label << ": cell " << CellToString(cell);
  });
  int64_t oracle_nonzero = 0;
  const int dims = oracle.dims();
  const Coord side = oracle.DomainHi()[0] + 1;
  ForEachCellInBox(Box{UniformCell(dims, 0), UniformCell(dims, side - 1)},
                   [&](const Cell& cell) {
                     if (oracle.Get(cell) != 0) ++oracle_nonzero;
                   });
  EXPECT_EQ(static_cast<int64_t>(walked.size()), oracle_nonzero) << label;
}

// -------------------------------------------------------------------------
// Dynamic Data Cube: overlay range-adds + growth-straddling boxes.

TEST(RangeMutationDifferentialTest, DynamicCubeMatchesOracleAcrossDims) {
  std::mt19937_64 rng(TestSeed(20260808));
  struct Config {
    int dims;
    Coord side;
  };
  for (const Config cfg : {Config{1, 64}, Config{2, 48}, Config{3, 12}}) {
    SCOPED_TRACE("dims=" + std::to_string(cfg.dims));
    // Starts tiny, so range boxes straddle several growth re-rootings.
    DynamicDataCube cube(cfg.dims, 4);
    NaiveCube oracle(Shape::Cube(cfg.dims, cfg.side));
    for (int round = 0; round < 80; ++round) {
      const MutationBatch batch = RandomMixedBatch(rng, cfg.dims, cfg.side);
      ASSERT_TRUE(cube.ApplyBatch(batch));
      ASSERT_TRUE(oracle.ApplyBatch(batch));
      if (round % 13 == 5) cube.ShrinkToFit();
      if (round % 10 == 9) {
        const std::string label =
            "dims=" + std::to_string(cfg.dims) + " round=" +
            std::to_string(round);
        ExpectMatchesOracle(cube, oracle, rng, label);
        ExpectNonZeroWalkMatches(cube, oracle, label);
      }
    }
    cube.ShrinkToFit();
    ExpectMatchesOracle(cube, oracle, rng, "final");
    ExpectNonZeroWalkMatches(cube, oracle, "final");
  }
}

TEST(RangeMutationDifferentialTest, DirectRangeCallsMatchBatchedOnes) {
  std::mt19937_64 rng(TestSeed(717));
  DynamicDataCube direct(2, 8);
  DynamicDataCube batched(2, 8);
  NaiveCube oracle(Shape::Cube(2, 32));
  for (int round = 0; round < 60; ++round) {
    const Box box = RandomBoxIn(rng, 2, 32);
    const int64_t value = static_cast<int64_t>(rng() % 15) - 7;
    if (rng() % 2 == 0) {
      direct.RangeAdd(box, value);
      const Mutation m = MakeRangeAdd(box.lo, box.hi, value);
      ASSERT_TRUE(batched.ApplyBatch(std::span<const Mutation>(&m, 1)));
      oracle.RangeAdd(box, value);
    } else {
      direct.RangeSet(box, value);
      const Mutation m = MakeRangeSet(box.lo, box.hi, value);
      ASSERT_TRUE(batched.ApplyBatch(std::span<const Mutation>(&m, 1)));
      oracle.RangeSet(box, value);
    }
  }
  ExpectMatchesOracle(direct, oracle, rng, "direct");
  ExpectMatchesOracle(batched, oracle, rng, "batched");
}

TEST(RangeMutationDifferentialTest, NegativeCoordinateGrowthCarriesOverlay) {
  DynamicDataCube cube(2, 4);
  cube.RangeAdd(Box{{-5, -3}, {2, 1}}, 7);  // Grows across the origin.
  EXPECT_EQ(cube.Get({-5, -3}), 7);
  EXPECT_EQ(cube.Get({2, 1}), 7);
  EXPECT_EQ(cube.Get({0, 0}), 7);
  EXPECT_EQ(cube.TotalSum(), 7 * 8 * 5);
  cube.Add({-4, -2}, 3);
  EXPECT_EQ(cube.Get({-4, -2}), 10);
  // A second straddling box forces another re-root with a live overlay.
  cube.RangeAdd(Box{{-9, -9}, {-5, -3}}, 2);
  EXPECT_EQ(cube.Get({-9, -9}), 2);
  EXPECT_EQ(cube.Get({-5, -3}), 9);
  EXPECT_EQ(cube.TotalSum(), 7 * 8 * 5 + 3 + 2 * 5 * 7);
  EXPECT_EQ(cube.RangeSum(Box{{-9, -9}, {2, 1}}), cube.TotalSum());
}

TEST(RangeMutationDifferentialTest, CancelledRangeAddsAllowShrink) {
  DynamicDataCube cube(2, 4);
  const Box big{{0, 0}, {200, 200}};
  cube.RangeAdd(big, 5);
  EXPECT_GE(cube.side(), 201);
  cube.RangeAdd(big, -5);
  EXPECT_EQ(cube.TotalSum(), 0);
  cube.Add({1, 1}, 9);
  cube.ShrinkToFit();
  // The cancelled corners no longer pin the domain; only {1,1} does.
  EXPECT_LE(cube.side(), 4);
  EXPECT_EQ(cube.Get({1, 1}), 9);
  EXPECT_EQ(cube.TotalSum(), 9);
}

TEST(RangeMutationDifferentialTest, ZeroValuedRangeOpsDoNotGrow) {
  DynamicDataCube cube(2, 8);
  const Cell hi_before = cube.DomainHi();
  cube.RangeAdd(Box{{0, 0}, {1000000, 1000000}}, 0);
  cube.RangeSet(Box{{0, 0}, {1000000, 1000000}}, 0);
  EXPECT_EQ(cube.DomainHi(), hi_before);  // Neither op materialized cells.
  // A zero-valued range-set still clears what the clipped box covers.
  cube.Add({3, 3}, 41);
  cube.RangeSet(Box{{0, 0}, {1000000, 1000000}}, 0);
  EXPECT_EQ(cube.Get({3, 3}), 0);
  EXPECT_EQ(cube.TotalSum(), 0);
  EXPECT_EQ(cube.DomainHi(), hi_before);
}

// -------------------------------------------------------------------------
// Fixed-domain structures: the CubeInterface default path clips.

TEST(RangeMutationDifferentialTest, FixedDomainCubesClipLikeTheOracle) {
  std::mt19937_64 rng(TestSeed(4242));
  constexpr int kDims = 2;
  constexpr Coord kSide = 16;
  std::vector<std::unique_ptr<CubeInterface>> cubes;
  cubes.push_back(std::make_unique<BasicDdc>(kDims, kSide));
  cubes.push_back(std::make_unique<PrefixSumCube>(Shape::Cube(kDims, kSide)));
  cubes.push_back(
      std::make_unique<RelativePrefixSumCube>(Shape::Cube(kDims, kSide)));
  NaiveCube oracle(Shape::Cube(kDims, kSide));
  for (int round = 0; round < 50; ++round) {
    // Boxes deliberately poke outside [0, side)^d — every implementation
    // must clip to its (identical) domain exactly like the oracle.
    Box box{RandomCellIn(rng, kDims, -6, kSide + 5),
            RandomCellIn(rng, kDims, -6, kSide + 5)};
    const int64_t value = static_cast<int64_t>(rng() % 15) - 7;
    const bool is_set = rng() % 2 == 0;
    for (auto& cube : cubes) {
      if (is_set) {
        cube->RangeSet(box, value);
      } else {
        cube->RangeAdd(box, value);
      }
    }
    if (is_set) {
      oracle.RangeSet(box, value);
    } else {
      oracle.RangeAdd(box, value);
    }
  }
  const Box domain{UniformCell(kDims, 0), UniformCell(kDims, kSide - 1)};
  for (auto& cube : cubes) {
    ForEachCellInBox(domain, [&](const Cell& cell) {
      ASSERT_EQ(cube->Get(cell), oracle.Get(cell))
          << cube->name() << ": cell " << CellToString(cell);
    });
    for (int q = 0; q < 12; ++q) {
      const Box box = RandomBoxIn(rng, kDims, kSide);
      EXPECT_EQ(cube->RangeSum(box), oracle.RangeSum(box)) << cube->name();
    }
  }
}

// -------------------------------------------------------------------------
// Concurrent facades.

TEST(RangeMutationDifferentialTest, ShardedCubeMatchesOracleAcrossShardCounts) {
  std::mt19937_64 rng(TestSeed(90210));
  constexpr int kDims = 2;
  constexpr Coord kSide = 40;
  for (const int shards : {1, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedCube cube(kDims, 16, shards);
    NaiveCube oracle(Shape::Cube(kDims, kSide));
    for (int round = 0; round < 70; ++round) {
      const MutationBatch batch = RandomMixedBatch(rng, kDims, kSide);
      ASSERT_TRUE(cube.ApplyBatch(batch));
      ASSERT_TRUE(oracle.ApplyBatch(batch));
      if (round % 3 == 0) {
        // Wide slab-spanning ops through the convenience entry points.
        const Box box = RandomBoxIn(rng, kDims, kSide);
        const int64_t value = static_cast<int64_t>(rng() % 9) - 4;
        cube.RangeAdd(box, value);
        oracle.RangeAdd(box, value);
      }
      if (round % 4 == 1) {
        const Box box = RandomBoxIn(rng, kDims, kSide);
        const int64_t value = static_cast<int64_t>(rng() % 9) - 4;
        cube.RangeSet(box, value);
        oracle.RangeSet(box, value);
      }
    }
    ExpectMatchesOracle(cube, oracle, rng, "sharded");
    ExpectNonZeroWalkMatches(cube, oracle, "sharded");
  }
}

// -------------------------------------------------------------------------
// Durable cube: ranges must survive a restart (log replay) byte-exactly.

class DurableRangeTest : public ::testing::Test {
 protected:
  void SetUp() override { Cleanup(); }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::remove((base_ + ".log").c_str());
    std::remove((base_ + ".snap").c_str());
    std::remove((base_ + ".snap.tmp").c_str());
  }
  const std::string base_ = "/tmp/ddc_range_mutation_test";
};

TEST_F(DurableRangeTest, RangeBatchesSurviveRestart) {
  std::mt19937_64 rng(TestSeed(31337));
  constexpr int kDims = 2;
  constexpr Coord kSide = 40;
  NaiveCube oracle(Shape::Cube(kDims, kSide));
  {
    DurableCube cube(kDims, 8, base_);
    ASSERT_TRUE(cube.durable());
    for (int round = 0; round < 40; ++round) {
      const MutationBatch batch = RandomMixedBatch(rng, kDims, kSide);
      ASSERT_TRUE(cube.ApplyBatch(batch, /*sync=*/true));
      ASSERT_TRUE(oracle.ApplyBatch(batch));
      if (round == 20) {
        ASSERT_TRUE(cube.Checkpoint());
      }
    }
  }  // Destructor = clean "crash": everything was synced.
  {
    DurableCube cube(kDims, 8, base_);
    ASSERT_TRUE(cube.durable());
    ExpectMatchesOracle(cube.cube(), oracle, rng, "after restart");
    // Keep writing after recovery, restart again.
    for (int round = 0; round < 15; ++round) {
      const MutationBatch batch = RandomMixedBatch(rng, kDims, kSide);
      ASSERT_TRUE(cube.ApplyBatch(batch, /*sync=*/true));
      ASSERT_TRUE(oracle.ApplyBatch(batch));
    }
  }
  {
    DurableCube cube(kDims, 8, base_);
    ExpectMatchesOracle(cube.cube(), oracle, rng, "after second restart");
  }
}

// -------------------------------------------------------------------------
// Batch well-formedness: arity gaps must reject the batch, applying nothing.

TEST(RangeMutationContractTest, MalformedRangeBatchesAreRejectedWhole) {
  const Mutation good_point{{1, 2}, 3, MutationKind::kAdd};
  Mutation stray_hi = good_point;
  stray_hi.hi = {4, 5};  // A point carrying a high corner is malformed.
  const Mutation bad_arity_hi = MakeRangeAdd({1, 2}, {3}, 7);
  Mutation missing_hi{{1, 2}, 7, MutationKind::kRangeAdd};
  const Mutation bad_lo = MakeRangeSet({1}, {3, 4}, 7);

  for (const Mutation& bad : {stray_hi, bad_arity_hi, missing_hi, bad_lo}) {
    const MutationBatch batch = {good_point, bad};
    EXPECT_FALSE(BatchWellFormed(batch, 2));

    DynamicDataCube ddc(2, 8);
    EXPECT_FALSE(ddc.ApplyBatch(batch));
    EXPECT_EQ(ddc.TotalSum(), 0);  // Nothing applied, not even good_point.

    for (const int shards : {1, 3}) {
      ShardedCube sharded(2, 8, shards);
      EXPECT_FALSE(sharded.ApplyBatch(batch)) << shards;
      EXPECT_EQ(sharded.TotalSum(), 0) << shards;
    }

    NaiveCube naive(Shape::Cube(2, 8));
    EXPECT_FALSE(naive.ApplyBatch(batch));
    EXPECT_EQ(naive.RangeSum(Box{{0, 0}, {7, 7}}), 0);
  }

  // The well-formed twin of each shape is accepted.
  EXPECT_TRUE(BatchWellFormed(
      MutationBatch{good_point, MakeRangeAdd({1, 2}, {3, 4}, 7)}, 2));
}

// -------------------------------------------------------------------------
// Property: BuildCoalesceProgram ≡ sequential application.

void ApplyProgramTo(NaiveCube* cube, std::span<const Mutation> batch) {
  for (const CoalescedStep& step : BuildCoalesceProgram(batch)) {
    for (const CoalescedCell& c : step.points) {
      const int64_t value = c.has_set ? c.set_value + c.pending_add
                                      : cube->Get(*c.cell) + c.pending_add;
      cube->Set(*c.cell, value);
    }
    if (!step.has_range) continue;
    if (step.range.kind == MutationKind::kRangeAdd) {
      cube->RangeAdd(step.range.box(), step.range.delta);
    } else {
      cube->RangeSet(step.range.box(), step.range.delta);
    }
  }
}

TEST(RangeMutationPropertyTest, CoalesceProgramEquivalentToSequential) {
  std::mt19937_64 rng(TestSeed(62831853));
  constexpr int kDims = 2;
  constexpr Coord kSide = 24;
  for (int trial = 0; trial < 300; ++trial) {
    MutationBatch batch = RandomMixedBatch(rng, kDims, kSide);
    // Bias collisions: revisit earlier cells/boxes so kSet-after-kRangeSet
    // and kRangeAdd-over-kAdd orderings actually occur.
    if (batch.size() >= 2 && rng() % 2 == 0) {
      batch.push_back(batch[rng() % batch.size()]);
    }
    NaiveCube sequential(Shape::Cube(kDims, kSide));
    for (const Mutation& m : batch) {
      switch (m.kind) {
        case MutationKind::kAdd:
          sequential.Add(m.cell, m.delta);
          break;
        case MutationKind::kSet:
          sequential.Set(m.cell, m.delta);
          break;
        case MutationKind::kRangeAdd:
          sequential.RangeAdd(m.box(), m.delta);
          break;
        case MutationKind::kRangeSet:
          sequential.RangeSet(m.box(), m.delta);
          break;
      }
    }
    NaiveCube programmed(Shape::Cube(kDims, kSide));
    ApplyProgramTo(&programmed, batch);
    const Box domain{UniformCell(kDims, 0), UniformCell(kDims, kSide - 1)};
    ForEachCellInBox(domain, [&](const Cell& cell) {
      ASSERT_EQ(programmed.Get(cell), sequential.Get(cell))
          << "trial " << trial << ": cell " << CellToString(cell);
    });
  }
}

}  // namespace
}  // namespace ddc
