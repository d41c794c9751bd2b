// Differential suite for the batched mutation pipeline: for every cube
// implementation, ApplyBatch must be observably identical to a loop of
// Add / Set calls applied front to back — including duplicate cells (the
// coalescing path), ADD/SET interleavings on one cell, batches straddling
// domain growth, and empty batches. This is the contract every layer above
// (sharded, concurrent, WAL group commit, query writes, OLAP ingest)
// builds on.

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "olap/measure.h"
#include "olap/olap_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "query/executor.h"
#include "rps/relative_prefix_sum_cube.h"
#include "test_seed.h"

namespace ddc {
namespace {

// Force real pool workers so ShardedCube's pooled shard groups run
// cross-thread here (and under TSan/ASan via the `sanitize` label), even on
// single-core CI containers. Runs before ThreadPool::Shared() exists.
const int kForcePoolThreads = [] {
  setenv("DDC_POOL_THREADS", "3", /*overwrite=*/0);
  return 0;
}();

// A batch with all the interesting shapes: uniform cells, deliberate
// duplicates (coalescing must preserve front-to-back semantics), ADD→SET
// and SET→ADD runs on one cell, zero deltas, and negative values. Cells
// stay inside [0, side)^d, which every fixed-domain structure accepts.
MutationBatch MakeBatch(WorkloadGenerator& gen, size_t count,
                        bool with_sets) {
  MutationBatch batch;
  batch.reserve(count * 2);
  for (size_t i = 0; i < count; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t value = gen.Value(-9, 9);
    const MutationKind kind = (with_sets && i % 3 == 1)
                                  ? MutationKind::kSet
                                  : MutationKind::kAdd;
    batch.push_back(Mutation{cell, value, kind});
    if (i % 4 == 0) {
      // Same cell again: later mutations must see the earlier ones.
      batch.push_back(Mutation{cell, gen.Value(-9, 9),
                               (with_sets && i % 8 == 4)
                                   ? MutationKind::kSet
                                   : MutationKind::kAdd});
    }
    if (i % 7 == 0) batch.push_back(Mutation{cell, 0, MutationKind::kAdd});
  }
  return batch;
}

// Applies `batch` with plain Add/Set calls: the reference semantics.
void ApplyLoop(CubeInterface* cube, const MutationBatch& batch) {
  for (const Mutation& m : batch) {
    if (m.kind == MutationKind::kSet) {
      cube->Set(m.cell, m.delta);
    } else {
      cube->Add(m.cell, m.delta);
    }
  }
}

// Compares the two cubes cell by cell over the whole (small) domain, plus
// one full-domain range sum.
void ExpectSameState(const CubeInterface& batched, const CubeInterface& looped,
                     int dims, int64_t side, const std::string& label) {
  Box all{Cell(static_cast<size_t>(dims), 0),
          Cell(static_cast<size_t>(dims), side - 1)};
  EXPECT_EQ(batched.RangeSum(all), looped.RangeSum(all)) << label;
  Cell cell(static_cast<size_t>(dims), 0);
  const int64_t cells = [&] {
    int64_t n = 1;
    for (int j = 0; j < dims; ++j) n *= side;
    return n;
  }();
  for (int64_t flat = 0; flat < cells; ++flat) {
    int64_t rest = flat;
    for (int j = 0; j < dims; ++j) {
      cell[static_cast<size_t>(j)] = rest % side;
      rest /= side;
    }
    ASSERT_EQ(batched.Get(cell), looped.Get(cell))
        << label << " at " << CellToString(cell);
  }
}

struct Factory {
  std::string name;
  std::function<std::unique_ptr<CubeInterface>(int, int64_t)> make;
};

std::vector<Factory> AllFactories() {
  return {
      {"Naive",
       [](int dims, int64_t side) {
         return std::make_unique<NaiveCube>(Shape::Cube(dims, side));
       }},
      {"PrefixSum",
       [](int dims, int64_t side) {
         return std::make_unique<PrefixSumCube>(Shape::Cube(dims, side));
       }},
      {"RelativePrefixSum",
       [](int dims, int64_t side) {
         return std::make_unique<RelativePrefixSumCube>(
             Shape::Cube(dims, side));
       }},
      {"BasicDdc",
       [](int dims, int64_t side) {
         return std::make_unique<BasicDdc>(dims, side);
       }},
      {"Ddc",
       [](int dims, int64_t side) {
         return std::make_unique<DynamicDataCube>(dims, side);
       }},
      {"DdcElided",
       [](int dims, int64_t side) {
         DdcOptions options;
         options.elide_levels = 2;
         return std::make_unique<DynamicDataCube>(dims, side, options);
       }},
      {"DdcFenwick",
       [](int dims, int64_t side) {
         DdcOptions options;
         options.use_fenwick = true;
         return std::make_unique<DynamicDataCube>(dims, side, options);
       }},
  };
}

TEST(UpdateBatchTest, EveryCubeMatchesSequentialLoop) {
  const uint64_t seed = TestSeed(20260805);
  for (const Factory& factory : AllFactories()) {
    for (const int dims : {1, 2, 3}) {
      const int64_t side = dims == 3 ? 8 : 16;
      for (const bool with_sets : {false, true}) {
        WorkloadGenerator gen(Shape::Cube(dims, side),
                              seed + static_cast<uint64_t>(dims));
        auto batched = factory.make(dims, side);
        auto looped = factory.make(dims, side);
        // Identical pre-population: coalescing on the batched side must
        // fold into existing state, not a blank cube.
        for (const UpdateOp& op : gen.UniformUpdates(40, -5, 5)) {
          batched->Add(op.cell, op.delta);
          looped->Add(op.cell, op.delta);
        }
        const MutationBatch batch = MakeBatch(gen, 120, with_sets);
        batched->ApplyBatch(batch);
        ApplyLoop(looped.get(), batch);
        ExpectSameState(*batched, *looped, dims, side,
                        factory.name + " dims=" + std::to_string(dims) +
                            (with_sets ? " sets" : " adds"));
      }
    }
  }
}

TEST(UpdateBatchTest, EmptyBatchIsANoOp) {
  for (const Factory& factory : AllFactories()) {
    auto cube = factory.make(2, 8);
    cube->Add({1, 2}, 5);
    cube->ApplyBatch({});
    EXPECT_EQ(cube->Get({1, 2}), 5) << factory.name;
  }
}

TEST(UpdateBatchTest, SameCellAddSetAddCoalesces) {
  // [Add +5, Set 7, Add +3] must land at 10 whatever the prior value: the
  // Set discards everything before it.
  DynamicDataCube cube(2, 16);
  cube.Add({3, 4}, 100);
  const MutationBatch batch = {
      Mutation{{3, 4}, 5, MutationKind::kAdd},
      Mutation{{3, 4}, 7, MutationKind::kSet},
      Mutation{{3, 4}, 3, MutationKind::kAdd},
  };
  cube.ApplyBatch(batch);
  EXPECT_EQ(cube.Get({3, 4}), 10);
  EXPECT_EQ(cube.TotalSum(), 10);
}

TEST(UpdateBatchTest, BatchStraddlingGrowthMatchesLoop) {
  const uint64_t seed = TestSeed(414243);
  WorkloadGenerator gen(Shape::Cube(2, 8), seed);
  DynamicDataCube batched(2, 8);
  DynamicDataCube looped(2, 8);
  MutationBatch batch = MakeBatch(gen, 40, /*with_sets=*/true);
  // Cells far outside the seed domain, including negative coordinates:
  // the batch must trigger (possibly several) re-roots before any delta
  // lands, and still match the loop.
  batch.push_back(Mutation{{40, 3}, 11, MutationKind::kAdd});
  batch.push_back(Mutation{{-5, -17}, 4, MutationKind::kAdd});
  batch.push_back(Mutation{{40, 3}, 2, MutationKind::kSet});
  batch.push_back(Mutation{{100, -60}, -6, MutationKind::kAdd});
  batched.ApplyBatch(batch);
  ApplyLoop(&looped, batch);
  EXPECT_EQ(batched.side(), looped.side());
  EXPECT_EQ(batched.TotalSum(), looped.TotalSum());
  batched.ForEachNonZero([&](const Cell& cell, int64_t value) {
    EXPECT_EQ(value, looped.Get(cell)) << CellToString(cell);
  });
  EXPECT_EQ(batched.Get({40, 3}), 2);
  EXPECT_EQ(batched.Get({-5, -17}), looped.Get({-5, -17}));
}

TEST(UpdateBatchTest, GrowthDuringBatchAdvancesReRootEpoch) {
  DynamicDataCube cube(2, 8);
  const int64_t epoch_before = cube.ReRootEpoch();
  cube.ApplyBatch({{Mutation{{30, 30}, 1, MutationKind::kAdd}}});
  EXPECT_GT(cube.ReRootEpoch(), epoch_before);
  EXPECT_GT(cube.side(), 8);
  EXPECT_EQ(cube.ReRootEpoch() - epoch_before, cube.growth_doublings());
}

// At 1 shard (the coarse configuration), 3 and 4, on a mixed batch and on
// a kSet-heavy one.
TEST(UpdateBatchTest, ShardedCubeMatchesLoop) {
  const uint64_t seed = TestSeed(616263);
  WorkloadGenerator gen(Shape::Cube(2, 16), seed);
  const MutationBatch mixed = MakeBatch(gen, 150, /*with_sets=*/true);
  MutationBatch set_heavy;
  for (int i = 0; i < 200; ++i) {
    set_heavy.push_back(Mutation{gen.UniformCell(), gen.Value(-9, 9),
                                 i % 2 == 0 ? MutationKind::kSet
                                            : MutationKind::kAdd});
  }
  for (const MutationBatch& batch : {mixed, set_heavy}) {
    for (const int shards : {1, 3, 4}) {
      ShardedCube sharded(2, 16, shards);
      DynamicDataCube reference(2, 16);
      ASSERT_TRUE(sharded.ApplyBatch(batch));
      ApplyLoop(&reference, batch);
      EXPECT_EQ(sharded.TotalSum(), reference.TotalSum()) << shards;
      reference.ForEachNonZero([&](const Cell& cell, int64_t value) {
        EXPECT_EQ(sharded.Get(cell), value)
            << shards << " shards at " << CellToString(cell);
      });
    }
  }
}

TEST(UpdateBatchTest, MeasureCubeBatchIngestMatchesLoop) {
  const uint64_t seed = TestSeed(717273);
  WorkloadGenerator gen(Shape::Cube(2, 16), seed);
  MeasureCube batched(2, 16);
  MeasureCube looped(2, 16);
  std::vector<Observation> observations;
  for (int i = 0; i < 100; ++i) {
    observations.push_back(Observation{gen.UniformCell(), gen.Value(0, 50)});
  }
  batched.AddObservationBatch(observations);
  for (const Observation& o : observations) {
    looped.AddObservation(o.cell, o.value);
  }
  Box all{{0, 0}, {15, 15}};
  EXPECT_EQ(batched.RangeSum(all), looped.RangeSum(all));
  EXPECT_EQ(batched.RangeCount(all), looped.RangeCount(all));
  EXPECT_EQ(batched.RangeCount(all), 100);
}

TEST(UpdateBatchTest, QueryWriteStatementsApplyAsOneBatch) {
  DynamicDataCube cube(2, 16);
  QueryResult write =
      RunStatement("ADD AT [3, 4] = 10, AT [5, 6] = -2, AT [3, 4] = 1",
                   &cube);
  ASSERT_TRUE(write.ok) << write.error;
  EXPECT_TRUE(write.is_write);
  EXPECT_EQ(write.mutations_applied, 3);
  EXPECT_EQ(cube.Get({3, 4}), 11);
  EXPECT_EQ(cube.Get({5, 6}), -2);

  write = RunStatement("SET AT [3, 4] = 7", &cube);
  ASSERT_TRUE(write.ok) << write.error;
  EXPECT_EQ(cube.Get({3, 4}), 7);

  // Reads still parse through the same entry point.
  const QueryResult read = RunStatement("SUM WHERE d0 IN [0, 15]", &cube);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.rows.at(0).sum, 5);

  // Arity mismatch is an error result, not an abort.
  const QueryResult bad = RunStatement("ADD AT [1, 2, 3] = 4", &cube);
  EXPECT_FALSE(bad.ok);
}

TEST(UpdateBatchTest, MalformedBatchIsRejectedWithoutApplying) {
  // A batch whose second mutation has the wrong arity: the whole batch must
  // be rejected as a recoverable error with NO mutation applied — not even
  // the well-formed first one, and certainly not an abort.
  const MutationBatch bad = {Mutation{{1, 2}, 5, MutationKind::kAdd},
                             Mutation{{1, 2, 3}, 1, MutationKind::kAdd}};

  DynamicDataCube ddc(2, 16);  // Overridden shared-descent path.
  ddc.Add({1, 2}, 3);
  EXPECT_FALSE(ddc.ApplyBatch(bad));
  EXPECT_EQ(ddc.Get({1, 2}), 3);
  EXPECT_EQ(ddc.TotalSum(), 3);

  NaiveCube naive(Shape::Cube(2, 8));  // Default-loop path.
  naive.Add({1, 2}, 3);
  EXPECT_FALSE(naive.ApplyBatch(bad));
  EXPECT_EQ(naive.Get({1, 2}), 3);

  for (const int shards : {1, 4}) {
    ShardedCube sharded(2, 16, shards);
    sharded.Add({1, 2}, 3);
    EXPECT_FALSE(sharded.ApplyBatch(bad)) << shards;
    EXPECT_EQ(sharded.Get({1, 2}), 3) << shards;
    EXPECT_EQ(sharded.TotalSum(), 3) << shards;
  }
}

}  // namespace
}  // namespace ddc
