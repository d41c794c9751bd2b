// Workload-introspection tests (src/obs/introspect.h, workload_recorder.h,
// flight_recorder.h, and the EXPLAIN [ANALYZE] query surface): cost-ledger
// install/nesting semantics, the EXPLAIN ANALYZE differential contract
// (executed ledger counts == registry counter deltas, exactly), EXPLAIN
// never mutating the cube, workload-recorder bucket geometry / top-K /
// BatchScope equivalence, and flight-recorder ring wrap + dump.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cell.h"
#include "common/mutation.h"
#include "common/range.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/workload_recorder.h"
#include "query/executor.h"

namespace ddc {
namespace {

// Most suites need the compiled-in instrumentation; under -DDDC_OBS=OFF
// ActiveLedger() is constexpr-null and SetEnabled is a no-op.
bool RuntimeObsAvailable() {
  obs::SetEnabled(true);
  return obs::Enabled();
}

void SeedCube(DynamicDataCube* cube, int64_t side, int64_t ops) {
  const int dims = cube->dims();
  MutationBatch batch;
  for (int64_t i = 0; i < ops; ++i) {
    Cell cell(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      cell[static_cast<size_t>(d)] = (i * 7 + d * 13) % side;
    }
    batch.push_back(Mutation{cell, 1 + (i % 5), MutationKind::kAdd});
  }
  cube->ApplyBatch(batch);
}

// --- CostLedger scoping ----------------------------------------------------

TEST(CostLedger, InstallAndNestingRestoresPrevious) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  EXPECT_EQ(obs::ActiveLedger(), nullptr);
  obs::CostLedger outer;
  {
    obs::ScopedCostLedger outer_scope(&outer);
    EXPECT_EQ(obs::ActiveLedger(), &outer);
    obs::CostLedger inner;
    {
      obs::ScopedCostLedger inner_scope(&inner);
      EXPECT_EQ(obs::ActiveLedger(), &inner);
    }
    EXPECT_EQ(obs::ActiveLedger(), &outer);
  }
  EXPECT_EQ(obs::ActiveLedger(), nullptr);
}

TEST(CostLedger, CubeReadsFoldIntoTheInstalledLedger) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 16);
  SeedCube(&cube, 16, 64);
  obs::CostLedger ledger;
  {
    obs::ScopedCostLedger scope(&ledger);
    (void)cube.RangeSum(Box{UniformCell(2, 1), UniformCell(2, 12)});
  }
  EXPECT_GT(ledger.nodes_visited, 0);
  EXPECT_GT(ledger.values_read + ledger.face_lookups, 0);
  // No ledger installed: the same read must not touch the old one.
  const obs::CostLedger before = ledger;
  (void)cube.RangeSum(Box{UniformCell(2, 1), UniformCell(2, 12)});
  EXPECT_EQ(ledger.nodes_visited, before.nodes_visited);
  EXPECT_EQ(ledger.values_read, before.values_read);
}

// --- EXPLAIN ---------------------------------------------------------------

int64_t ExplainField(const std::string& text, const std::string& label) {
  const std::string needle = label + ": ";
  size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing '" << label << "' in:\n"
                                   << text;
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + needle.size());
}

// The field under the "executed:" section (ANALYZE output repeats some
// labels in the plan section).
int64_t ExecutedField(const std::string& text, const std::string& label) {
  const size_t exec_at = text.find("executed:");
  EXPECT_NE(exec_at, std::string::npos) << text;
  if (exec_at == std::string::npos) return -1;
  return ExplainField(text.substr(exec_at), label);
}

TEST(Explain, GoldenPlanShape) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 8);
  SeedCube(&cube, 8, 64);
  const QueryResult result =
      RunStatement("EXPLAIN SUM WHERE d0 IN [1, 3]", &cube);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.is_explain);
  // Plan-only output: a stable header plus the corner decomposition. The
  // box is [1..3] x [0..7]: the two corner terms with a -1 coordinate
  // vanish, leaving 2 signed prefix-sum terms.
  EXPECT_NE(result.explain_text.find("EXPLAIN\n"), std::string::npos);
  EXPECT_NE(result.explain_text.find("kind: read (SUM)"), std::string::npos);
  EXPECT_EQ(ExplainField(result.explain_text, "boxes after clipping"), 1);
  EXPECT_EQ(ExplainField(result.explain_text, "corner terms"), 2);
  EXPECT_EQ(result.explain_text.find("executed:"), std::string::npos);
}

TEST(Explain, AnalyzeCountsEqualRegistryDeltasExactly) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 16);
  SeedCube(&cube, 16, 128);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* nodes = registry.GetCounter("ddc.nodes_visited");
  obs::Counter* reads = registry.GetCounter("ddc.values_read");
  obs::Counter* faces = registry.GetCounter("ddc.face_lookups");

  const int64_t nodes0 = nodes->Value();
  const int64_t reads0 = reads->Value();
  const int64_t faces0 = faces->Value();
  const QueryResult result = RunStatement(
      "EXPLAIN ANALYZE SUM GROUP BY d0 SIZE 4 WHERE d1 IN [2, 13]", &cube);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.is_explain);

  // The differential contract: the ledger sites are exactly the registry
  // mirror sites, so the executed section equals the counter deltas.
  EXPECT_EQ(ExecutedField(result.explain_text, "nodes visited"),
            nodes->Value() - nodes0);
  EXPECT_EQ(ExecutedField(result.explain_text, "values read"),
            reads->Value() - reads0);
  EXPECT_EQ(ExecutedField(result.explain_text, "face lookups"),
            faces->Value() - faces0);
  EXPECT_GT(ExecutedField(result.explain_text, "nodes visited"), 0);
}

TEST(Explain, NeverMutatesEvenWithAnalyze) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 8);
  SeedCube(&cube, 8, 32);
  const int64_t total = cube.TotalSum();
  const QueryResult plain =
      RunStatement("EXPLAIN ADD AT [1, 2] = 5", &cube);
  ASSERT_TRUE(plain.ok) << plain.error;
  const QueryResult analyze =
      RunStatement("EXPLAIN ANALYZE ADD AT [1, 2] = 5", &cube);
  ASSERT_TRUE(analyze.ok) << analyze.error;
  EXPECT_EQ(cube.TotalSum(), total);
  // The write itself still works without the prefix.
  const QueryResult write = RunStatement("ADD AT [1, 2] = 5", &cube);
  ASSERT_TRUE(write.ok) << write.error;
  EXPECT_EQ(cube.TotalSum(), total + 5);
}

// The range-add overlay in both regimes: journal only (no trees, every
// pending entry scanned) and past the crossover (2^d trees plus exactly
// Crossover pending entries). The plan equals the execution, the execution
// equals the registry delta, and EXPLAIN of a range write changes nothing.
TEST(Explain, OverlayPlanMatchesExecutionBeforeAndAfterTheFirstFold) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 8);
  SeedCube(&cube, 8, 32);
  const int64_t crossover = DynamicDataCube::Crossover(2, 8);
  obs::Counter* journal = obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.overlay_journal_boxes");
  struct Regime {
    int64_t range_adds;
    int64_t trees;
    int64_t journal_boxes;
  };
  int64_t applied = 0;
  for (const Regime regime :
       {Regime{5, 0, 5}, Regime{crossover + 7, 4, crossover}}) {
    for (; applied < regime.range_adds; ++applied) {
      cube.RangeAdd(Box{{applied % 4, 1}, {4 + applied % 3, 6}}, 1);
    }
    SCOPED_TRACE("range adds=" + std::to_string(applied));
    const int64_t pending = cube.PendingRangeAdds();
    const int64_t total = cube.TotalSum();
    const int64_t journal0 = journal->Value();
    const QueryResult result = RunStatement(
        "EXPLAIN ANALYZE SUM GROUP BY d0 SIZE 2 WHERE d1 IN [1, 6]", &cube);
    ASSERT_TRUE(result.ok) << result.error;
    const std::string& text = result.explain_text;
    // Plan section (first occurrence) and executed section agree.
    EXPECT_EQ(ExplainField(text, "overlay trees"), regime.trees);
    EXPECT_EQ(ExplainField(text, "overlay journal boxes"),
              regime.journal_boxes);
    EXPECT_EQ(ExecutedField(text, "overlay trees"), regime.trees);
    EXPECT_EQ(ExecutedField(text, "overlay journal boxes"),
              regime.journal_boxes);
    EXPECT_EQ(journal->Value() - journal0, regime.journal_boxes);

    const QueryResult write =
        RunStatement("EXPLAIN ANALYZE ADD 3 IN [1, 1 .. 2, 2]", &cube);
    ASSERT_TRUE(write.ok) << write.error;
    EXPECT_EQ(cube.PendingRangeAdds(), pending);
    EXPECT_EQ(cube.TotalSum(), total);
  }
}

TEST(Explain, ShardedReadRecordsFanOutInLedger) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  ShardedCube cube(2, 16, 4);
  for (int64_t i = 0; i < 32; ++i) {
    cube.Add({i % 16, (i * 3) % 16}, 1);
  }
  obs::CostLedger ledger;
  {
    obs::ScopedCostLedger scope(&ledger);
    // One box spanning every slab: one group per shard, one sub-query each
    // (the fan-out ledger sites live on the batched read path).
    const Box all{UniformCell(2, 0), UniformCell(2, 15)};
    int64_t out[1] = {0};
    cube.RangeSumBatch(std::span<const Box>(&all, 1),
                       std::span<int64_t>(out, 1));
  }
  EXPECT_EQ(ledger.shard_groups, 4);
  EXPECT_EQ(ledger.shard_subqueries, 4);
}

// --- WorkloadRecorder ------------------------------------------------------

TEST(WorkloadRecorderBuckets, CoordGridIsSignedAndLogarithmic) {
  using WR = obs::WorkloadRecorder;
  const int center = WR::kCoordBuckets / 2;
  EXPECT_EQ(WR::CoordBucket(0), center);
  EXPECT_EQ(WR::CoordBucket(1), center + 1);
  EXPECT_EQ(WR::CoordBucket(-1), center - 1);
  EXPECT_EQ(WR::CoordBucket(2), center + 2);
  EXPECT_EQ(WR::CoordBucket(3), center + 2);
  EXPECT_EQ(WR::CoordBucket(-3), center - 2);
  // Clamped at the grid edges, INT64_MIN included.
  EXPECT_EQ(WR::CoordBucket(INT64_MAX), WR::kCoordBuckets - 1);
  EXPECT_EQ(WR::CoordBucket(INT64_MIN), 0);
}

TEST(WorkloadRecorderBuckets, ExtentIsBitWidthClamped) {
  using WR = obs::WorkloadRecorder;
  EXPECT_EQ(WR::ExtentBucket(0), 0);
  EXPECT_EQ(WR::ExtentBucket(1), 1);
  EXPECT_EQ(WR::ExtentBucket(2), 2);
  EXPECT_EQ(WR::ExtentBucket(3), 2);
  EXPECT_EQ(WR::ExtentBucket(4), 3);
  EXPECT_EQ(WR::ExtentBucket(INT64_MAX), WR::kExtentBuckets - 1);
}

TEST(WorkloadRecorder, TopKIsExactForSingleOpTraffic) {
  obs::WorkloadRecorder recorder;
  const int64_t hot_lo[2] = {1, 2};
  const int64_t hot_hi[2] = {3, 4};
  const int64_t cold_lo[2] = {5, 5};
  const int64_t cold_hi[2] = {6, 6};
  for (int i = 0; i < 10; ++i) recorder.RecordRead(hot_lo, hot_hi, 2);
  recorder.RecordRead(cold_lo, cold_hi, 2);
  EXPECT_EQ(recorder.ReadCount(), 11);
  const auto hot = recorder.HotReads();
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].count, 10);
  EXPECT_EQ(hot[0].overcount, 0);
  EXPECT_EQ(hot[0].lo[0], 1);
  EXPECT_EQ(hot[0].hi[1], 4);
  EXPECT_EQ(hot[1].count, 1);
}

TEST(WorkloadRecorder, SpaceSavingEvictionBoundsOvercount) {
  obs::WorkloadRecorder recorder;
  // Fill all K slots, then insert one more distinct box: it must evict the
  // minimum and inherit its count as the overcount bound.
  for (int i = 0; i < obs::WorkloadRecorder::kTopK; ++i) {
    const int64_t lo[1] = {i};
    const int64_t hi[1] = {i};
    recorder.RecordRead(lo, hi, 1);
  }
  const int64_t lo[1] = {1000};
  const int64_t hi[1] = {1001};
  recorder.RecordRead(lo, hi, 1);
  const auto hot = recorder.HotReads();
  ASSERT_EQ(hot.size(),
            static_cast<size_t>(obs::WorkloadRecorder::kTopK));
  bool found = false;
  for (const auto& h : hot) {
    if (h.lo[0] == 1000) {
      found = true;
      EXPECT_EQ(h.count, 2);      // Evicted min count 1 + its own 1.
      EXPECT_EQ(h.overcount, 1);  // ... of which 1 is inherited slack.
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadRecorder, BatchScopeMatchesSingleOpRecordingExactly) {
  // A repeated box lands on the stride-sampled positions often enough that
  // the weighted count is exact, so the whole rendered sketch (grid,
  // extents, volume histogram, top-K) must be byte-identical to the
  // single-op path fed the same traffic.
  constexpr int kOps = 4 * obs::WorkloadRecorder::kBatchTopKStride;
  const int64_t lo[2] = {2, 3};
  const int64_t hi[2] = {5, 9};

  obs::WorkloadRecorder single;
  for (int i = 0; i < kOps; ++i) single.RecordRead(lo, hi, 2);

  obs::WorkloadRecorder batched;
  {
    obs::WorkloadRecorder::BatchScope scope(batched, /*mutations=*/false, 2);
    for (int i = 0; i < kOps; ++i) scope.Record(lo, hi);
  }

  EXPECT_EQ(batched.ReadCount(), kOps);
  std::ostringstream single_os, batched_os;
  single.RenderJson(single_os);
  batched.RenderJson(batched_os);
  EXPECT_EQ(single_os.str(), batched_os.str());
}

TEST(WorkloadRecorder, BatchScopeStrideSamplingPreservesTotalWeight) {
  // Distinct boxes: every stride-th one is inserted with weight stride, so
  // the top-K counts sum to the number of recorded boxes.
  constexpr int kStride = obs::WorkloadRecorder::kBatchTopKStride;
  constexpr int kOps = 2 * kStride;
  obs::WorkloadRecorder recorder;
  {
    obs::WorkloadRecorder::BatchScope scope(recorder, /*mutations=*/true, 1);
    for (int i = 0; i < kOps; ++i) {
      const int64_t lo[1] = {i * 10};
      const int64_t hi[1] = {i * 10 + 1};
      scope.Record(lo, hi);
    }
  }
  EXPECT_EQ(recorder.MutationCount(), kOps);
  const auto hot = recorder.HotMutations();
  ASSERT_EQ(hot.size(), 2u);  // kOps / kStride sampled inserts.
  int64_t weight = 0;
  for (const auto& h : hot) weight += h.count;
  EXPECT_EQ(weight, kOps);
}

TEST(WorkloadRecorder, SetRecordingSuppressesBothPaths) {
  obs::WorkloadRecorder recorder;
  const int64_t lo[1] = {0};
  const int64_t hi[1] = {1};
  obs::WorkloadRecorder::SetRecording(false);
  recorder.RecordRead(lo, hi, 1);
  {
    obs::WorkloadRecorder::BatchScope scope(recorder, /*mutations=*/false, 1);
    scope.Record(lo, hi);
  }
  obs::WorkloadRecorder::SetRecording(true);
  EXPECT_EQ(recorder.ReadCount(), 0);
  EXPECT_TRUE(recorder.HotReads().empty());
  recorder.RecordRead(lo, hi, 1);
  EXPECT_EQ(recorder.ReadCount(), 1);
}

TEST(WorkloadRecorder, ResetClearsTheSketch) {
  obs::WorkloadRecorder recorder;
  const int64_t lo[2] = {1, 1};
  const int64_t hi[2] = {2, 2};
  recorder.RecordMutation(lo, hi, 2);
  ASSERT_EQ(recorder.MutationCount(), 1);
  recorder.Reset();
  EXPECT_EQ(recorder.MutationCount(), 0);
  EXPECT_TRUE(recorder.HotMutations().empty());
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestRecords) {
  obs::FlightRecorder recorder;
  const size_t capacity = obs::FlightRecorder::kCapacity;
  for (size_t i = 0; i < capacity + 20; ++i) {
    obs::FlightRecord record;
    record.kind = obs::FlightRecorder::kKindRead;
    record.arg = static_cast<int64_t>(i);
    recorder.Record(record);
  }
  EXPECT_EQ(recorder.TotalRecorded(), capacity + 20);
  std::vector<obs::FlightRecord> records;
  recorder.Snapshot(&records);
  ASSERT_EQ(records.size(), capacity);
  // Oldest 20 overwritten; what's left is in sequence order.
  EXPECT_EQ(records.front().arg, 20);
  EXPECT_EQ(records.back().arg, static_cast<int64_t>(capacity + 19));
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  recorder.Reset();
  recorder.Snapshot(&records);
  EXPECT_TRUE(records.empty());
}

TEST(FlightRecorder, StatementHashIsStableAndTextSensitive) {
  const char a[] = "SUM WHERE d0 IN [1, 2]";
  const char b[] = "SUM WHERE d0 IN [1, 3]";
  EXPECT_EQ(obs::HashStatement(a, sizeof(a) - 1),
            obs::HashStatement(a, sizeof(a) - 1));
  EXPECT_NE(obs::HashStatement(a, sizeof(a) - 1),
            obs::HashStatement(b, sizeof(b) - 1));
}

TEST(FlightRecorder, DumpToFileWritesParseableJson) {
  obs::FlightRecorder recorder;
  obs::FlightRecord record;
  record.kind = obs::FlightRecorder::kKindBatch;
  record.nodes_visited = 7;
  record.arg = 42;
  recorder.Record(record);

  const std::string path =
      ::testing::TempDir() + "/introspect_flightrec_dump.json";
  ASSERT_TRUE(recorder.DumpToFile(path.c_str(), "introspect_test",
                                  sizeof("introspect_test") - 1));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string dump = contents.str();
  EXPECT_EQ(dump.front(), '{');
  EXPECT_NE(dump.find("\"crash_site\": \"introspect_test\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"total\": 1"), std::string::npos);
  EXPECT_NE(dump.find("\"records\""), std::string::npos);
  EXPECT_NE(dump.find("\"arg\": 42"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RunStatementAppendsOneRecordPerStatement) {
  if (!RuntimeObsAvailable()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  DynamicDataCube cube(2, 8);
  SeedCube(&cube, 8, 32);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  const uint64_t before = recorder.TotalRecorded();
  ASSERT_TRUE(RunStatement("SUM WHERE d0 IN [1, 5]", &cube).ok);
  ASSERT_TRUE(RunStatement("ADD AT [2, 2] = 1", &cube).ok);
  ASSERT_TRUE(RunStatement("EXPLAIN ANALYZE SUM WHERE d0 IN [1, 5]",
                           &cube).ok);
  EXPECT_EQ(recorder.TotalRecorded(), before + 3);
  std::vector<obs::FlightRecord> records;
  recorder.Snapshot(&records);
  ASSERT_GE(records.size(), 3u);
  const auto& read = records[records.size() - 3];
  const auto& write = records[records.size() - 2];
  const auto& explain = records[records.size() - 1];
  EXPECT_EQ(read.kind, obs::FlightRecorder::kKindRead);
  EXPECT_EQ(write.kind, obs::FlightRecorder::kKindWrite);
  EXPECT_EQ(explain.kind, obs::FlightRecorder::kKindExplain);
  EXPECT_GT(read.nodes_visited, 0);
  EXPECT_NE(read.statement_hash, explain.statement_hash);
}

}  // namespace
}  // namespace ddc
