// One counting channel: every cube's value counts, the DDC family's and
// the paper baselines' alike, reach the EXPLAIN ledger and the registry's
// ddc.* counters through the per-thread count blocks (common/op_counter.h),
// so the calling thread's block, the ledger and the registry read the same
// counts for one operation, face-tree work included. With -DDDC_OBS=OFF
// the ledger and registry parts skip.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/op_counter.h"
#include "common/range.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

bool RuntimeObsAvailable() {
  obs::SetEnabled(true);
  return obs::Enabled();
}

OpCounters RegistryCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  OpCounters counts;
  counts.values_read = registry.GetCounter("ddc.values_read")->Value();
  counts.values_written = registry.GetCounter("ddc.values_written")->Value();
  counts.nodes_visited = registry.GetCounter("ddc.nodes_visited")->Value();
  counts.face_lookups = registry.GetCounter("ddc.face_lookups")->Value();
  return counts;
}

void ExpectSameCounts(const OpCounters& a, const OpCounters& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.values_read, b.values_read);
  EXPECT_EQ(a.values_written, b.values_written);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.face_lookups, b.face_lookups);
}

// Runs `op` under a ledger and checks that the calling thread's block
// delta, the ledger and the registry delta agree; returns the block delta.
template <typename Op>
OpCounters ExpectOneChannel(const char* what, Op&& op) {
  SCOPED_TRACE(what);
  const OpCounters registry0 = RegistryCounts();
  obs::CostLedger ledger;
  OpCounters thread;
  {
    obs::ScopedCostLedger scope(&ledger);
    thread = CountsOf(op);
  }
  const OpCounters registry = RegistryCounts() - registry0;
  EXPECT_GT(thread.values_read + thread.values_written, 0);
  if (RuntimeObsAvailable()) {
    ExpectSameCounts(thread, ledger, "the thread's block vs ledger");
    ExpectSameCounts(thread, registry, "the thread's block vs registry");
  }
  return thread;
}

Cell CellAt(int dims, int64_t i, int64_t side) {
  Cell cell(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    cell[static_cast<size_t>(d)] = (i * (7 + 2 * d) + d * 5) % side;
  }
  return cell;
}

Box BoxAt(int dims, int64_t i, int64_t side) {
  Cell lo = CellAt(dims, i, side);
  Cell hi = CellAt(dims, i + 3, side);
  for (size_t d = 0; d < lo.size(); ++d) {
    if (lo[d] > hi[d]) std::swap(lo[d], hi[d]);
  }
  return Box{lo, hi};
}

MutationBatch PointBatch(int dims, int64_t first, int64_t count,
                         int64_t side) {
  MutationBatch batch;
  for (int64_t i = first; i < first + count; ++i) {
    batch.push_back(
        Mutation{CellAt(dims, i, side), 1 + i % 7, MutationKind::kAdd});
  }
  return batch;
}

struct ChannelParam {
  int dims;
  int64_t side;
  bool use_fenwick;
};

class CountChannelTest : public ::testing::TestWithParam<ChannelParam> {};

TEST_P(CountChannelTest, LedgerRegistryAndThreadAgree) {
  const ChannelParam p = GetParam();
  DdcOptions options;
  options.use_fenwick = p.use_fenwick;
  DynamicDataCube cube(p.dims, p.side, options);
  ASSERT_TRUE(cube.ApplyBatch(PointBatch(p.dims, 0, 200, p.side)));
  // Up to the crossover: the next range-add folds the oldest entry into
  // the overlay trees, so every read below descends them too.
  const int64_t crossover = DynamicDataCube::Crossover(p.dims, p.side);
  for (int64_t i = 0; i < crossover; ++i) {
    cube.RangeAdd(BoxAt(p.dims, i, p.side), 1 + i % 3);
  }
  ASSERT_EQ(cube.PendingRangeAdds(), crossover);

  const OpCounters range_add =
      ExpectOneChannel("RangeAdd past the crossover", [&] {
        cube.RangeAdd(BoxAt(p.dims, crossover, p.side), 2);
      });
  EXPECT_GT(range_add.nodes_visited, 0);
  ASSERT_EQ(cube.PendingRangeAdds(), crossover);
  const OpCounters range_sum = ExpectOneChannel(
      "RangeSum", [&] { (void)cube.RangeSum(BoxAt(p.dims, 5, p.side)); });
  EXPECT_GT(range_sum.nodes_visited, 0);
  const OpCounters range_sum_batch = ExpectOneChannel("RangeSumBatch", [&] {
    std::vector<Box> boxes;
    for (int64_t i = 0; i < 6; ++i) boxes.push_back(BoxAt(p.dims, i, p.side));
    std::vector<int64_t> out(boxes.size());
    cube.RangeSumBatch(boxes, out);
  });
  EXPECT_GT(range_sum_batch.nodes_visited, 0);
  const OpCounters apply_batch =
      ExpectOneChannel("32-point ApplyBatch", [&] {
        ASSERT_TRUE(cube.ApplyBatch(PointBatch(p.dims, 1000, 32, p.side)));
      });
  EXPECT_GT(apply_batch.nodes_visited, 0);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndFaces, CountChannelTest,
    ::testing::Values(ChannelParam{1, 16, false}, ChannelParam{1, 16, true},
                      ChannelParam{2, 16, false}, ChannelParam{2, 16, true},
                      ChannelParam{3, 8, false}, ChannelParam{3, 8, true}),
    [](const ::testing::TestParamInfo<ChannelParam>& info) {
      return "d" + std::to_string(info.param.dims) +
             (info.param.use_fenwick ? "_fenwick" : "_bc");
    });

// The paper baselines count through the same blocks: one row per baseline.
struct BaselineParam {
  const char* name;
  std::function<std::unique_ptr<CubeInterface>()> make;
};

constexpr int64_t kBaselineSide = 16;

std::vector<BaselineParam> Baselines() {
  const Shape shape = Shape::Cube(2, kBaselineSide);
  return {
      {"naive", [=] { return std::make_unique<NaiveCube>(shape); }},
      {"prefix_sum", [=] { return std::make_unique<PrefixSumCube>(shape); }},
      {"rps",
       [=] { return std::make_unique<RelativePrefixSumCube>(shape); }},
      {"basic_ddc",
       [] { return std::make_unique<BasicDdc>(2, kBaselineSide); }},
  };
}

class CountChannelBaselineTest
    : public ::testing::TestWithParam<BaselineParam> {};

TEST_P(CountChannelBaselineTest, LedgerRegistryAndThreadAgree) {
  const std::unique_ptr<CubeInterface> cube = GetParam().make();
  ExpectOneChannel("32-point ApplyBatch", [&] {
    ASSERT_TRUE(cube->ApplyBatch(PointBatch(2, 0, 32, kBaselineSide)));
  });
  ExpectOneChannel("Set", [&] { cube->Set(CellAt(2, 3, kBaselineSide), 4); });
  ExpectOneChannel("Get",
                   [&] { (void)cube->Get(CellAt(2, 5, kBaselineSide)); });
  ExpectOneChannel("RangeSum",
                   [&] { (void)cube->RangeSum(BoxAt(2, 5, kBaselineSide)); });
  ExpectOneChannel("RangeSumBatch", [&] {
    std::vector<Box> boxes;
    for (int64_t i = 0; i < 6; ++i) {
      boxes.push_back(BoxAt(2, i, kBaselineSide));
    }
    std::vector<int64_t> out(boxes.size());
    cube->RangeSumBatch(boxes, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    PaperBaselines, CountChannelBaselineTest,
    ::testing::ValuesIn(Baselines()),
    [](const ::testing::TestParamInfo<BaselineParam>& info) {
      return std::string(info.param.name);
    });

// One read path: a corner batch resolves as one Figure 10 descent per
// cell, so PrefixSumBatch gives the same answers and the same counts as a
// loop of PrefixSum over the same cells, repeated cells and cells that
// share all but their last level included. A walk shared between the cells
// of a subtree would visit each shared node once and count fewer nodes.
TEST(CountChannelReadTest, PrefixSumBatchCountsAsALoopOfPrefixSum) {
  for (const int dims : {1, 2, 3}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const int64_t side = dims == 1 ? 1024 : dims == 2 ? 64 : 16;
    OwnedDdcCore core(dims, side, DdcOptions{});
    for (int64_t i = 0; i < 300; ++i) {
      core.Add(CellAt(dims, i, side), 1 + i % 7);
    }
    std::vector<Cell> cells;
    for (int64_t i = 0; i < 40; ++i) {
      const Cell cell = CellAt(dims, 3 * i, side);
      Cell sibling = cell;  // The same path down to the leaf level.
      sibling[0] ^= 1;
      cells.push_back(cell);
      cells.push_back(sibling);
      cells.push_back(cell);
    }
    std::vector<int64_t> batched(cells.size());
    std::vector<int64_t> looped(cells.size());
    const OpCounters b =
        CountsOf([&] { core.PrefixSumBatch(cells, batched); });
    const OpCounters l = CountsOf([&] {
      for (size_t q = 0; q < cells.size(); ++q) {
        looped[q] = core.PrefixSum(cells[q]);
      }
    });
    EXPECT_EQ(batched, looped);
    EXPECT_GT(l.nodes_visited, 0);
    EXPECT_GT(l.values_read, 0);
    if (dims > 1) {
      EXPECT_GT(l.face_lookups, 0);
    }
    ExpectSameCounts(b, l, "PrefixSumBatch vs a loop of PrefixSum");
  }
}

// Four threads share one 2-shard cube, each under its own ledger: the
// registry delta is the sum of the ledgers. Batches of kPoolMinBatch
// mutations hand shard groups to pool workers, whose counts reach the
// caller's ledger through the pool-task slots.
TEST(CountChannelThreadedTest, RegistryDeltaIsTheSumOfTheLedgers) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  constexpr int kThreads = 4;
  constexpr int64_t kSide = 32;
  ShardedCube cube(2, kSide, 2);
  ASSERT_TRUE(cube.ApplyBatch(PointBatch(2, 0, 300, kSide)));

  const OpCounters registry0 = RegistryCounts();
  std::vector<obs::CostLedger> ledgers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::ScopedCostLedger scope(&ledgers[static_cast<size_t>(t)]);
      for (int64_t round = 0; round < 4; ++round) {
        const int64_t k = t * 100 + round;
        cube.Add(CellAt(2, k, kSide), 1);
        (void)cube.RangeSum(BoxAt(2, k, kSide));
        const Box boxes[2] = {BoxAt(2, k + 1, kSide), BoxAt(2, k + 2, kSide)};
        int64_t out[2];
        cube.RangeSumBatch(boxes, out);
        const int64_t size =
            round == 0 ? static_cast<int64_t>(ShardedCube::kPoolMinBatch) : 8;
        ASSERT_TRUE(cube.ApplyBatch(PointBatch(2, k * 1000, size, kSide)));
        cube.RangeAdd(BoxAt(2, k + 3, kSide), 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  OpCounters ledger_sum;
  for (const obs::CostLedger& ledger : ledgers) {
    EXPECT_GT(ledger.values_written, 0);
    ledger_sum += ledger;
  }
  ExpectSameCounts(ledger_sum, RegistryCounts() - registry0,
                   "sum of ledgers vs registry");
}

// Baseline reads are const: four threads read the same four baseline cubes
// at once, and each thread's counts for its reads equal a single-threaded
// run of the same reads (a count kept in the cube would race here).
TEST(CountChannelThreadedTest, BaselineReadsAreConstAndCountedPerThread) {
  constexpr int kThreads = 4;
  const std::vector<BaselineParam> baselines = Baselines();
  std::vector<std::unique_ptr<CubeInterface>> cubes;
  for (const BaselineParam& baseline : baselines) {
    cubes.push_back(baseline.make());
    ASSERT_TRUE(
        cubes.back()->ApplyBatch(PointBatch(2, 0, 64, kBaselineSide)));
  }
  auto read_all = [](const CubeInterface& cube) {
    int64_t sum = 0;
    for (int64_t i = 0; i < 16; ++i) {
      sum += cube.Get(CellAt(2, i, kBaselineSide));
      sum += cube.PrefixSum(CellAt(2, i + 1, kBaselineSide));
      sum += cube.RangeSum(BoxAt(2, i, kBaselineSide));
    }
    const Box boxes[3] = {BoxAt(2, 1, kBaselineSide),
                          BoxAt(2, 2, kBaselineSide),
                          BoxAt(2, 3, kBaselineSide)};
    int64_t out[3];
    cube.RangeSumBatch(boxes, out);
    return sum + out[0] + out[1] + out[2];
  };
  std::vector<OpCounters> alone(cubes.size());
  std::vector<int64_t> sums(cubes.size());
  for (size_t c = 0; c < cubes.size(); ++c) {
    alone[c] = CountsOf([&] { sums[c] = read_all(*cubes[c]); });
    EXPECT_GT(alone[c].values_read, 0) << baselines[c].name;
  }

  std::vector<std::vector<OpCounters>> counts(
      kThreads, std::vector<OpCounters>(cubes.size()));
  std::vector<std::vector<int64_t>> results(
      kThreads, std::vector<int64_t>(cubes.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t ut = static_cast<size_t>(t);
      // Each thread starts on a different cube, so all four are read at once.
      for (size_t k = 0; k < cubes.size(); ++k) {
        const size_t c = (k + ut) % cubes.size();
        counts[ut][c] =
            CountsOf([&] { results[ut][c] = read_all(*cubes[c]); });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < counts.size(); ++t) {
    for (size_t c = 0; c < cubes.size(); ++c) {
      SCOPED_TRACE(std::string(baselines[c].name) + " on thread " +
                   std::to_string(t));
      EXPECT_EQ(results[t][c], sums[c]);
      ExpectSameCounts(counts[t][c], alone[c], "threaded vs alone");
    }
  }
}

}  // namespace
}  // namespace ddc
