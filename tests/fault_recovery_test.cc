// Crash-recovery differential harness (DESIGN.md §11).
//
// The committed-prefix contract: every batch DurableCube::ApplyBatch acked
// (returned true for) must survive a crash; every batch that failed with an
// injected WAL fault must vanish. Each simulated process lifetime here is a
// DurableCube session that a fault kills mid-commit; destroying the session
// runs the poisoned-log truncation (the in-process stand-in for the kernel
// discarding unsynced bytes at SIGKILL), and the next session recovers from
// disk and is compared cell-for-cell against a shadow NaiveCube that saw
// exactly the acked batches.
//
// Everything in this file is a no-op unless the build compiled the fault
// library in (-DDDC_FAULTS=ON); tools/run_sanitizers.sh runs it under both
// TSan and ASan with faults on.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_cube.h"
#include "common/cell.h"
#include "common/mutation.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "fault/failpoint.h"
#include "naive/naive_cube.h"
#include "obs/metrics.h"
#include "test_seed.h"
#include "wal/cube_log.h"

namespace ddc {
namespace {

// The pool delay test needs helper lanes even on a 1-core host.
const int kForcePoolThreads = [] {
  setenv("DDC_POOL_THREADS", "3", /*overwrite=*/0);
  return 0;
}();

// Shadow domain: generated cells stay within [0, kShadowSide) so the naive
// oracle's fixed array covers every write.
constexpr Coord kShadowSide = 64;
constexpr Coord kCellMax = 48;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

MutationBatch RandomBatch(uint64_t* rng) {
  const int size = 1 + static_cast<int>(SplitMix(rng) % 5);
  MutationBatch batch;
  for (int i = 0; i < size; ++i) {
    const int64_t value = static_cast<int64_t>(SplitMix(rng) % 19) - 9;
    if (SplitMix(rng) % 5 == 0) {
      // Range mutations are first-class WAL v2 records: a crash can land
      // mid range-batch, and replay must be all-or-nothing for the record.
      Cell lo{static_cast<Coord>(SplitMix(rng) % (kCellMax + 1)),
              static_cast<Coord>(SplitMix(rng) % (kCellMax + 1))};
      Cell hi{std::min<Coord>(kCellMax, lo[0] + static_cast<Coord>(
                                                    SplitMix(rng) % 6)),
              std::min<Coord>(kCellMax, lo[1] + static_cast<Coord>(
                                                    SplitMix(rng) % 6))};
      if (SplitMix(rng) % 8 == 0) std::swap(lo, hi);  // Empty box no-op.
      batch.push_back(SplitMix(rng) % 2 == 0
                          ? MakeRangeAdd(std::move(lo), std::move(hi), value)
                          : MakeRangeSet(std::move(lo), std::move(hi), value));
      continue;
    }
    Cell cell{static_cast<Coord>(SplitMix(rng) % (kCellMax + 1)),
              static_cast<Coord>(SplitMix(rng) % (kCellMax + 1))};
    // Distinct cells per point run: batch semantics for duplicate point
    // cells are a coalescing concern (mutation.h), not a durability one.
    // (Ranges overlap points freely — order preservation across the range
    // barrier IS a durability concern, so it stays exercised here.)
    bool dup = false;
    for (const Mutation& m : batch) dup = dup || (!m.is_range() && m.cell == cell);
    if (dup) continue;
    const MutationKind kind =
        SplitMix(rng) % 4 == 0 ? MutationKind::kSet : MutationKind::kAdd;
    batch.push_back(Mutation{std::move(cell), value, kind});
  }
  return batch;
}

void ApplyToShadow(NaiveCube* shadow, const MutationBatch& batch) {
  for (const Mutation& m : batch) {
    switch (m.kind) {
      case MutationKind::kAdd:
        shadow->Add(m.cell, m.delta);
        break;
      case MutationKind::kSet:
        shadow->Set(m.cell, m.delta);
        break;
      case MutationKind::kRangeAdd:
        shadow->RangeAdd(m.box(), m.delta);
        break;
      case MutationKind::kRangeSet:
        shadow->RangeSet(m.box(), m.delta);
        break;
    }
  }
}

// Cell-for-cell equality in both directions: every nonzero cell of `cube`
// must appear in the shadow with the same value, and every shadow cell must
// read back identically.
void ExpectMatchesShadow(const DynamicDataCube& cube, const NaiveCube& shadow,
                         const std::string& context) {
  std::map<Cell, int64_t> nonzero;
  cube.ForEachNonZero(
      [&nonzero](const Cell& cell, int64_t value) { nonzero[cell] = value; });
  int64_t shadow_total = 0;
  for (Coord x = 0; x < kShadowSide; ++x) {
    for (Coord y = 0; y < kShadowSide; ++y) {
      const Cell cell{x, y};
      const int64_t want = shadow.Get(cell);
      shadow_total += want;
      const auto it = nonzero.find(cell);
      const int64_t have = it == nonzero.end() ? 0 : it->second;
      ASSERT_EQ(have, want) << context << ": mismatch at " << CellToString(cell);
      if (it != nonzero.end()) nonzero.erase(it);
    }
  }
  ASSERT_TRUE(nonzero.empty())
      << context << ": recovered cube holds " << nonzero.size()
      << " nonzero cell(s) outside the shadow domain, first at "
      << CellToString(nonzero.begin()->first);
  ASSERT_EQ(cube.TotalSum(), shadow_total) << context;
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::Compiled()) {
      GTEST_SKIP() << "fault library compiled out (-DDDC_FAULTS=OFF)";
    }
    fault::DisarmAll();
    Cleanup();
  }
  void TearDown() override {
    fault::DisarmAll();
    Cleanup();
  }

  void Cleanup() {
    std::remove((base_ + ".log").c_str());
    std::remove((base_ + ".snap").c_str());
    std::remove((base_ + ".snap.tmp").c_str());
  }

  std::string base_ = "/tmp/ddc_fault_recovery_test";
};

// How many crash/recover cycles the differential test runs. The default
// satisfies the 200-cycle acceptance bar; sanitizer runs can trim it via
// DDC_FAULT_CYCLES (run_sanitizers.sh keeps the default).
int FaultCycles() {
  const char* env = std::getenv("DDC_FAULT_CYCLES");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 200;
}

// The tentpole: 200+ seeded sessions, each killed by a different fault
// category mid-commit, each recovery checked against the acked-prefix
// shadow. Categories rotate through clean runs, torn record writes, failed
// syncs, torn checkpoints, and allocation failure mid-apply.
TEST_F(FaultRecoveryTest, CrashRecoveryPreservesAckedPrefix) {
  const uint64_t seed = TestSeed(20260805);
  uint64_t rng = seed;
  NaiveCube shadow(Shape::Cube(2, kShadowSide));

  const int cycles = FaultCycles();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    fault::DisarmAll();  // Recovery itself runs fault-free.
    {
      DurableCube cube(2, 16, base_);
      ASSERT_TRUE(cube.durable());
      ExpectMatchesShadow(cube.cube(), shadow,
                          "recovery after cycle " + std::to_string(cycle - 1));
      if (HasFatalFailure()) return;

      // Arm exactly one fault category for this session, seeded so the
      // whole run replays from DDC_TEST_SEED.
      fault::SetSeed(seed ^ (0x9E3779B97F4A7C15ull * (cycle + 1)));
      switch (cycle % 5) {
        case 0:  // Fault-free session: the ack path itself.
          break;
        case 1:
          fault::Arm("wal.write.short",
                     fault::Trigger::After(SplitMix(&rng) % 6));
          break;
        case 2:
          fault::Arm("wal.sync.fail",
                     fault::Trigger::After(SplitMix(&rng) % 5));
          break;
        case 3:
          fault::Arm("wal.checkpoint.tear", fault::Trigger::Prob(0.6));
          break;
        case 4:
          fault::Arm("arena.alloc.fail", fault::Trigger::Prob(0.02));
          break;
      }

      for (int b = 0; b < 6; ++b) {
        const MutationBatch batch = RandomBatch(&rng);
        bool acked = false;
        bool aborted = false;
        try {
          acked = cube.ApplyBatch(batch, /*sync=*/true);
        } catch (const fault::AllocFailure&) {
          // Thrown mid-apply, strictly after the record was logged and
          // synced: the batch is durable, the in-memory cube is not to be
          // trusted — count it committed and end the session.
          aborted = true;
        }
        if (aborted) {
          ApplyToShadow(&shadow, batch);
          break;
        }
        if (!acked) break;  // Injected log failure: never committed.
        ApplyToShadow(&shadow, batch);
        // Interleave checkpoints: a failed one (torn snapshot, poisoned
        // sync) must never lose acked state.
        if (b % 3 == 1) {
          (void)cube.Checkpoint();
        } else {
          (void)cube.CheckpointIfRerooted();
        }
      }
      // Session "crashes" here: the DurableCube destructor truncates a
      // poisoned log back to its last synced byte.
    }
  }

  fault::DisarmAll();
  DurableCube final_cube(2, 16, base_);
  ExpectMatchesShadow(final_cube.cube(), shadow, "final recovery");
}

MutationBatch OneAdd(Cell cell, int64_t delta) {
  return MutationBatch{Mutation{std::move(cell), delta, MutationKind::kAdd}};
}

TEST_F(FaultRecoveryTest, TornCheckpointKeepsPreviousSnapshotAndLog) {
  fault::SetSeed(TestSeed(11));
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.ApplyBatch(OneAdd({1, 2}, 10)));
    ASSERT_TRUE(cube.Checkpoint());
    ASSERT_TRUE(cube.ApplyBatch(OneAdd({3, 4}, 7)));

    fault::Arm("wal.checkpoint.tear", fault::Trigger::Count(1));
    EXPECT_FALSE(cube.Checkpoint());
    EXPECT_EQ(fault::Triggers("wal.checkpoint.tear"), 1u);
    fault::DisarmAll();
  }
  // The snapshot write tore before the rename: the previous snapshot and
  // the (un-reset) log must reconstruct everything.
  DurableCube recovered(2, 16, base_);
  EXPECT_EQ(recovered.cube().Get({1, 2}), 10);
  EXPECT_EQ(recovered.cube().Get({3, 4}), 7);
  EXPECT_EQ(recovered.cube().TotalSum(), 17);
}

TEST_F(FaultRecoveryTest, ShortWritePoisonsLogAndRecoveryDropsTornBatch) {
  fault::SetSeed(TestSeed(12));
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.ApplyBatch(OneAdd({1, 1}, 5)));

    fault::Arm("wal.write.short", fault::Trigger::Count(1));
    EXPECT_FALSE(cube.ApplyBatch(OneAdd({2, 2}, 9)));
    EXPECT_EQ(fault::Triggers("wal.write.short"), 1u);
    fault::DisarmAll();

    // Poisoned: later appends must refuse rather than stack durable-looking
    // records behind torn garbage.
    EXPECT_FALSE(cube.ApplyBatch(OneAdd({3, 3}, 4)));
  }
  DurableCube recovered(2, 16, base_);
  EXPECT_EQ(recovered.cube().Get({1, 1}), 5);
  EXPECT_EQ(recovered.cube().Get({2, 2}), 0);
  EXPECT_EQ(recovered.cube().Get({3, 3}), 0);
  EXPECT_EQ(recovered.recovery().batches, 1);
}

TEST_F(FaultRecoveryTest, CrashMidRangeBatchDropsWholeRecord) {
  fault::SetSeed(TestSeed(15));
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.ApplyBatch(OneAdd({1, 1}, 5)));
    const MutationBatch committed{MakeRangeAdd({0, 0}, {9, 9}, 3)};
    ASSERT_TRUE(cube.ApplyBatch(committed));

    // Tear the record of a batch that mixes a point with two range ops:
    // none of its three mutations may survive, not even a prefix.
    fault::Arm("wal.write.short", fault::Trigger::Count(1));
    MutationBatch torn;
    torn.push_back(Mutation{{2, 2}, 7, MutationKind::kAdd});
    torn.push_back(MakeRangeAdd({0, 0}, {5, 5}, 2));
    torn.push_back(MakeRangeSet({4, 4}, {6, 6}, 1));
    EXPECT_FALSE(cube.ApplyBatch(torn));
    EXPECT_EQ(fault::Triggers("wal.write.short"), 1u);
    fault::DisarmAll();
  }
  DurableCube recovered(2, 16, base_);
  EXPECT_EQ(recovered.recovery().batches, 2);
  EXPECT_EQ(recovered.cube().Get({1, 1}), 5 + 3);  // Point + committed box.
  EXPECT_EQ(recovered.cube().Get({0, 0}), 3);
  EXPECT_EQ(recovered.cube().Get({9, 9}), 3);
  EXPECT_EQ(recovered.cube().Get({4, 4}), 3);  // Torn range-set never landed.
  EXPECT_EQ(recovered.cube().TotalSum(), 5 + 3 * 100);
}

TEST_F(FaultRecoveryTest, SyncFailDropsBufferedRecordExactly) {
  fault::SetSeed(TestSeed(13));
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.ApplyBatch(OneAdd({1, 1}, 3)));

    fault::Arm("wal.sync.fail", fault::Trigger::Count(1));
    EXPECT_FALSE(cube.ApplyBatch(OneAdd({2, 2}, 8)));
    fault::DisarmAll();
  }
  // The failed sync never reached the file; destruction truncated the
  // buffered record, so replay sees exactly one batch and a clean tail.
  DurableCube recovered(2, 16, base_);
  EXPECT_EQ(recovered.cube().Get({1, 1}), 3);
  EXPECT_EQ(recovered.cube().Get({2, 2}), 0);
  EXPECT_EQ(recovered.recovery().batches, 1);
  EXPECT_TRUE(recovered.recovery().clean_tail);
}

TEST_F(FaultRecoveryTest, ArenaAllocFailureIsCatchableAndCounted) {
  fault::SetSeed(TestSeed(14));
  auto cube = std::make_unique<DynamicDataCube>(2, 8);
  cube->Add({1, 1}, 5);

  fault::Arm("arena.alloc.fail", fault::Trigger::Count(1));
  bool thrown = false;
  // Drive enough node allocation (growth to a 512-sided domain, many
  // inserts) that the arena must open new blocks; the armed failpoint turns
  // the first one into an AllocFailure.
  for (int i = 1; i <= 64 && !thrown; ++i) {
    MutationBatch batch;
    for (int j = 0; j < 32; ++j) {
      batch.push_back(Mutation{{(i * 37 + j * 13) % 500, (i * 53 + j * 11) % 500},
                               1,
                               MutationKind::kAdd});
    }
    try {
      cube->ApplyBatch(batch);
    } catch (const fault::AllocFailure& failure) {
      thrown = true;
      EXPECT_STREQ(failure.site, "arena.alloc.fail");
    }
  }
  EXPECT_TRUE(thrown);
  EXPECT_EQ(fault::Triggers("arena.alloc.fail"), 1u);
  // A cube that threw mid-apply holds partial state: the only valid next
  // step is discarding it (recovery rebuilds from durable state).
  cube.reset();
}

TEST_F(FaultRecoveryTest, TriggerModesAndCountersAreDeterministic) {
  // Keep one long-fuse site armed so Enabled() stays true while other
  // sites' exhaustion would otherwise short-circuit evaluation.
  fault::Arm("test.keepalive.site", fault::Trigger::After(1u << 30));

  fault::Arm("test.count.site", fault::Trigger::Count(2));
  EXPECT_TRUE(DDC_FAULTPOINT("test.count.site"));
  EXPECT_TRUE(DDC_FAULTPOINT("test.count.site"));
  EXPECT_FALSE(DDC_FAULTPOINT("test.count.site"));
  EXPECT_EQ(fault::Triggers("test.count.site"), 2u);
  // The exhausted (kOff) site stops counting hits: only the two armed
  // evaluations registered.
  EXPECT_EQ(fault::Hits("test.count.site"), 2u);

  fault::Arm("test.after.site", fault::Trigger::After(2));
  EXPECT_FALSE(DDC_FAULTPOINT("test.after.site"));
  EXPECT_FALSE(DDC_FAULTPOINT("test.after.site"));
  EXPECT_TRUE(DDC_FAULTPOINT("test.after.site"));
  EXPECT_TRUE(DDC_FAULTPOINT("test.after.site"));

  fault::Arm("test.every.site", fault::Trigger::Every(3));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(DDC_FAULTPOINT("test.every.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true}));

  fault::Arm("test.prob.site", fault::Trigger::Prob(1.0));
  EXPECT_TRUE(DDC_FAULTPOINT("test.prob.site"));
  fault::Arm("test.prob.site", fault::Trigger::Prob(0.0));
  EXPECT_FALSE(DDC_FAULTPOINT("test.prob.site"));

  // Same seed, same site, same order => identical draw sequence.
  fault::Arm("test.prob.site", fault::Trigger::Prob(0.5));
  fault::SetSeed(12345);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) first.push_back(DDC_FAULTPOINT("test.prob.site"));
  fault::SetSeed(12345);
  std::vector<bool> second;
  for (int i = 0; i < 32; ++i) second.push_back(DDC_FAULTPOINT("test.prob.site"));
  EXPECT_EQ(first, second);

  // Trigger counts mirror into the metrics registry when obs is compiled.
  if (obs::Enabled()) {
    EXPECT_EQ(obs::MetricsRegistry::Default()
                  .GetCounter("fault.test.count.site.triggers")
                  ->Value(),
              2);
  }

  // Unarmed and never-armed sites report zero.
  fault::Disarm("test.count.site");
  EXPECT_EQ(fault::Triggers("test.never.armed"), 0u);
  EXPECT_EQ(fault::Hits("test.never.armed"), 0u);
}

TEST_F(FaultRecoveryTest, ArmFromSpecParsesTheEnvGrammar) {
  std::string error;
  EXPECT_TRUE(fault::ArmFromSpec(
      "seed=7;test.spec.a=count:2;test.spec.b=after:3;test.spec.c=off", &error))
      << error;
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(DDC_FAULTPOINT("test.spec.a"));
  EXPECT_FALSE(DDC_FAULTPOINT("test.spec.b"));
  EXPECT_FALSE(DDC_FAULTPOINT("test.spec.c"));

  const char* bad_specs[] = {
      "nonsense",          // No '='.
      "test.spec.x=",      // Empty trigger.
      "test.spec.x=count", // Missing argument.
      "test.spec.x=count:zebra", "test.spec.x=bogus:1",
      "test.spec.x=prob:1.5", "seed=notanumber",
  };
  for (const char* spec : bad_specs) {
    error.clear();
    EXPECT_FALSE(fault::ArmFromSpec(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST_F(FaultRecoveryTest, OwnerDelayLeavesBatchedReadsExact) {
  fault::SetSeed(TestSeed(15));
  ShardedCube cube(2, 32, 4);
  uint64_t rng = 99;
  for (int i = 0; i < 256; ++i) {
    cube.Add({static_cast<Coord>(SplitMix(&rng) % 32),
              static_cast<Coord>(SplitMix(&rng) % 32)},
             static_cast<int64_t>(SplitMix(&rng) % 11) - 5);
  }

  std::vector<Box> boxes;
  for (int i = 0; i < 12; ++i) {
    Coord lo0 = static_cast<Coord>(SplitMix(&rng) % 24);
    Coord lo1 = static_cast<Coord>(SplitMix(&rng) % 24);
    boxes.push_back(Box{{lo0, lo1},
                        {lo0 + static_cast<Coord>(SplitMix(&rng) % 8),
                         lo1 + static_cast<Coord>(SplitMix(&rng) % 8)}});
  }
  std::vector<int64_t> baseline(boxes.size(), 0);
  cube.RangeSumBatch(boxes, baseline);

  fault::Arm("sharded.owner.delay", fault::Trigger::Every(1));
  std::vector<int64_t> delayed(boxes.size(), 0);
  cube.RangeSumBatch(boxes, delayed);
  MutationBatch writes;
  for (int i = 0; i < 16; ++i) {
    writes.push_back(Mutation{{static_cast<Coord>(i % 32),
                               static_cast<Coord>((i * 7) % 32)},
                              1,
                              MutationKind::kAdd});
  }
  EXPECT_TRUE(cube.ApplyBatch(writes));
  // The delay site sits in every shard critical section; the batched
  // work above must have crossed it at least once for this test to mean
  // anything. (Read before DisarmAll — disarming clears the counters.)
  EXPECT_GT(fault::Hits("sharded.owner.delay"), 0u);
  fault::DisarmAll();

  EXPECT_EQ(delayed, baseline);
  std::vector<int64_t> after(boxes.size(), 0);
  cube.RangeSumBatch(boxes, after);
  int64_t total = 0;
  cube.ForEachNonZero([&total](const Cell&, int64_t v) { total += v; });
  EXPECT_EQ(total, cube.TotalSum());
}

TEST_F(FaultRecoveryTest, CacheInsertFailureDegradesToMiss) {
  fault::SetSeed(TestSeed(16));
  DynamicDataCube backend(2, 16);
  CachedCube cached(&backend);
  backend.Add({1, 1}, 9);
  const Box box{{0, 0}, {3, 3}};

  // cache.insert.fail models allocation failure at population time: the
  // caller still gets the freshly computed value, and cache state is
  // exactly what it was — a degraded miss, never an error.
  fault::Arm("cache.insert.fail", fault::Trigger::Count(1));
  EXPECT_EQ(cached.RangeSum(box), 9);
  EXPECT_EQ(fault::Triggers("cache.insert.fail"), 1u);
  fault::DisarmAll();
  CacheStats stats = cached.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.insert_failures, 1);
  EXPECT_EQ(stats.misses, 1);

  // Fault cleared: the same read populates normally, then hits.
  EXPECT_EQ(cached.RangeSum(box), 9);
  EXPECT_EQ(cached.Stats().entries, 1);
  EXPECT_EQ(cached.RangeSum(box), 9);
  EXPECT_EQ(cached.Stats().hits, 1);

  // Batched-probe population degrades the same way, entry by entry.
  cached.Flush();
  fault::Arm("cache.insert.fail", fault::Trigger::Every(2));
  std::vector<Box> boxes{Box{{0, 0}, {1, 1}}, Box{{2, 2}, {3, 3}},
                         Box{{0, 0}, {5, 5}}, Box{{4, 4}, {7, 7}}};
  std::vector<int64_t> sums(boxes.size());
  cached.RangeSumBatch(boxes, sums);
  fault::DisarmAll();
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(sums[i], backend.RangeSum(boxes[i])) << i;
  }
  stats = cached.Stats();
  EXPECT_EQ(stats.entries, 2);          // Every second insert failed...
  EXPECT_EQ(stats.insert_failures, 3);  // ...on top of the point-read one.
}

// The invalidation fault site is pure crash-arming for tools/crashloop.sh
// (its return value is discarded), so triggering it in-process must change
// nothing: invalidation completes and stays precise.
TEST_F(FaultRecoveryTest, InvalidateMidSiteIsInert) {
  fault::SetSeed(TestSeed(17));
  DynamicDataCube backend(2, 16);
  CachedCube cached(&backend);
  (void)cached.RangeSum(Box{{0, 0}, {3, 3}});
  (void)cached.RangeSum(Box{{8, 8}, {11, 11}});
  ASSERT_EQ(cached.Stats().entries, 2);

  fault::Arm("cache.invalidate.mid", fault::Trigger::Every(1));
  cached.Add({2, 2}, 5);  // Overlaps the first entry only.
  EXPECT_EQ(fault::Triggers("cache.invalidate.mid"), 1u);
  fault::DisarmAll();
  EXPECT_EQ(cached.Stats().invalidated, 1);
  EXPECT_EQ(cached.Stats().entries, 1);
  EXPECT_EQ(cached.RangeSum(Box{{0, 0}, {3, 3}}), 5);
  EXPECT_EQ(cached.RangeSum(Box{{8, 8}, {11, 11}}), 0);
}

}  // namespace
}  // namespace ddc
