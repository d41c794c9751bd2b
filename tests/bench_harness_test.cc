// Unit tests of the shared bench harness (bench/harness.h): the interleaving
// order and preps, the smoke-mode wall-time top-up, the nearest-rank
// median, and the JSON writer's output as Python's json module reads it.

#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace ddc::bench {
namespace {

// Sets DDC_BENCH_SMOKE for one test and restores "unset" after it.
class ScopedSmoke {
 public:
  explicit ScopedSmoke(bool on) {
    if (on) {
      setenv("DDC_BENCH_SMOKE", "1", 1);
    } else {
      unsetenv("DDC_BENCH_SMOKE");
    }
  }
  ~ScopedSmoke() { unsetenv("DDC_BENCH_SMOKE"); }
  ScopedSmoke(const ScopedSmoke&) = delete;
  ScopedSmoke& operator=(const ScopedSmoke&) = delete;
};

void SpinFor(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

// Arms that log "p<name>" for each prep and "<name>" for each run.
std::vector<Arm> LoggingArms(const std::string& names, int reps,
                             std::string* log) {
  std::vector<Arm> arms;
  for (char name : names) {
    arms.push_back({reps, [log, name] { *log += name; },
                    [log, name] { *log += std::string("p") + name; }});
  }
  return arms;
}

TEST(BenchHarnessTest, ArmsTakeTurnsEachAfterItsPrep) {
  ScopedSmoke smoke(false);
  std::string log;
  const std::vector<Summary> timed = Interleave(LoggingArms("AB", 3, &log));
  // Warm-up, then three rounds: no arm ever runs twice in a row, and each
  // prep runs right before its own arm's run.
  EXPECT_EQ(log, "pAApBB" "pAApBB" "pAApBB" "pAApBB");
  ASSERT_EQ(timed.size(), 2u);
  EXPECT_EQ(timed[0].reps(), 3);
  EXPECT_EQ(timed[1].reps(), 3);

  log.clear();
  Interleave(LoggingArms("ABC", 2, &log));
  EXPECT_EQ(log, "pAApBBpCC" "pAApBBpCC" "pAApBBpCC");
}

TEST(BenchHarnessTest, FewerRepsAreSpreadOverTheRounds) {
  ScopedSmoke smoke(false);
  std::string log;
  const std::vector<Summary> timed = Interleave(
      {{2, [&] { log += 'A'; }}, {6, [&] { log += 'B'; }}});
  // After the warm-ups, A runs in the first round and again once half the
  // rounds are done.
  EXPECT_EQ(log, "AB" "AB" "B" "B" "AB" "B" "B");
  EXPECT_EQ(timed[0].reps(), 2);
  EXPECT_EQ(timed[1].reps(), 6);
}

TEST(BenchHarnessTest, TopUpRunsUntilThePhaseIsLongEnough) {
  ScopedSmoke smoke(true);
  const std::vector<Summary> timed =
      Interleave({{3, [] { SpinFor(20'000); }}, {1, [] { SpinFor(20'000); }}});
  EXPECT_GE(timed[0].reps(), 3);
  EXPECT_GE(timed[1].reps(), 1);
  EXPECT_GE(timed[0].total_ns + timed[1].total_ns, kMinPhaseNs);
  // Topping up keeps the requested 3:1 share of the rounds.
  EXPECT_NEAR(static_cast<double>(timed[0].reps()) / timed[1].reps(), 3.0,
              0.1);
}

TEST(BenchHarnessTest, TopUpNeverRunsFewerRepsThanRequested) {
  ScopedSmoke smoke(true);
  // The requested reps alone outlast kMinPhaseNs: exactly those run.
  const int64_t spin = kMinPhaseNs / 20;
  const std::vector<Summary> timed =
      Interleave({{25, [&] { SpinFor(spin); }}, {25, [] {}}});
  EXPECT_EQ(timed[0].reps(), 25);
  EXPECT_EQ(timed[1].reps(), 25);
}

TEST(BenchHarnessTest, MedianIsNearestRankOnEvenCounts) {
  const Summary s = Summarize({40, 10, 30, 20});
  EXPECT_EQ(s.p50_ns, 20);  // The lower middle sample, not 25 or 30.
  EXPECT_EQ(s.min_ns, 10);
  EXPECT_EQ(s.p99_ns, 40);
  EXPECT_EQ(s.total_ns, 100);
  EXPECT_EQ(s.samples, (std::vector<int64_t>{40, 10, 30, 20}));

}

TEST(BenchHarnessTest, JsonParsesAndCarriesBothHostKeys) {
  const std::string path = ::testing::TempDir() + "/bench_harness_test.json";
  setenv("DDC_BENCH_JSON", path.c_str(), 1);
  Json json("harness_test");
  json.Num("speedup_x", 1.5).Bool("gate_skipped", true).Array("configs");
  json.Object().Int("dims", 2).Str("impl", "coarse").Array("reads");
  json.Object().Int("n", 1).End().Object().Int("n", 2).End().End().End();
  json.Object().Int("dims", 3).End();
  const bool wrote = json.Write();
  unsetenv("DDC_BENCH_JSON");
  ASSERT_TRUE(wrote);

  const std::string check =
      std::string(DDC_PYTHON) +
      " -c \"import json, sys; d = json.load(open(sys.argv[1])); "
      "assert d['bench'] == 'harness_test', d; "
      "assert d['hardware_threads'] == int(sys.argv[2]), d; "
      "assert d['affinity_cpus'] == int(sys.argv[3]), d; "
      "assert d['speedup_x'] == 1.5 and d['gate_skipped'] is True, d; "
      "assert [c['dims'] for c in d['configs']] == [2, 3], d; "
      "assert d['configs'][0]['impl'] == 'coarse', d; "
      "assert [r['n'] for r in d['configs'][0]['reads']] == [1, 2], d\" " +
      path + " " + std::to_string(HardwareThreads()) + " " +
      std::to_string(AffinityCpus());
  EXPECT_EQ(std::system(check.c_str()), 0) << check;
}

}  // namespace
}  // namespace ddc::bench
