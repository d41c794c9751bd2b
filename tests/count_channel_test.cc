// One counting channel: the DDC family's value counts reach the EXPLAIN
// ledger, the registry's ddc.* counters and a cube's counters() through the
// per-thread count blocks (common/op_counter.h), so the three readings of
// one operation are equal, face-tree work included. With -DDDC_OBS=OFF only
// counters() is checked (against the calling thread's block); the ledger
// and registry parts skip.

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutation.h"
#include "common/op_counter.h"
#include "common/range.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "obs/introspect.h"
#include "obs/metrics.h"

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

// Runs `op` on `cube` under a ledger and checks that the cube's counters()
// delta, the calling thread's block delta, the ledger and the registry
// delta agree.
template <typename Op>
void ExpectOneChannel(const DynamicDataCube& cube, const char* what,
                      Op&& op) {
  SCOPED_TRACE(what);
  const OpCounters cube0 = cube.counters();
  const OpCounters registry0 = RegistryCounts();
  obs::CostLedger ledger;
  OpCounters thread;
  {
    obs::ScopedCostLedger scope(&ledger);
    thread = CountsOf(op);
  }
  const OpCounters registry = RegistryCounts() - registry0;
  const OpCounters counters = cube.counters() - cube0;
  EXPECT_GT(counters.nodes_visited, 0);
  ExpectSameCounts(counters, thread, "counters() vs the thread's block");
  if (!RuntimeObsAvailable()) return;
  ExpectSameCounts(counters, ledger, "counters() vs ledger");
  ExpectSameCounts(counters, registry, "counters() vs registry");
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

TEST_P(CountChannelTest, LedgerRegistryAndCountersAgree) {
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

  ExpectOneChannel(cube, "RangeAdd past the crossover", [&] {
    cube.RangeAdd(BoxAt(p.dims, crossover, p.side), 2);
  });
  ASSERT_EQ(cube.PendingRangeAdds(), crossover);
  ExpectOneChannel(cube, "RangeSum",
                   [&] { (void)cube.RangeSum(BoxAt(p.dims, 5, p.side)); });
  ExpectOneChannel(cube, "RangeSumBatch", [&] {
    std::vector<Box> boxes;
    for (int64_t i = 0; i < 6; ++i) boxes.push_back(BoxAt(p.dims, i, p.side));
    std::vector<int64_t> out(boxes.size());
    cube.RangeSumBatch(boxes, out);
  });
  ExpectOneChannel(cube, "32-point ApplyBatch", [&] {
    ASSERT_TRUE(cube.ApplyBatch(PointBatch(p.dims, 1000, 32, p.side)));
  });
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

}  // namespace
}  // namespace ddc
