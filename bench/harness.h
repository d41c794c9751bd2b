// The measurement protocol shared by the gated benches (bench_kernels,
// bench_throughput, bench_range_update, bench_query_batch, bench_cached_reads
// and bench_update_batch), so that a ratio compares the structures under test
// and not two copies of the timing code.
//
//   * Interleave times the arms of a comparison in turn, A B A B ..., after
//     one untimed warm-up run of each. An arm may carry an untimed prep that
//     runs right before each of its runs. Drift (frequency scaling, a noisy
//     neighbour, a preemption) then lands on every arm alike instead of on
//     whichever arm ran while it lasted, and every run of an arm follows the
//     same history.
//   * In smoke mode (DDC_BENCH_SMOKE set and not "0") every Interleave call is
//     a phase whose timed runs total at least kMinPhaseNs: rounds are topped
//     up past the requested reps until they do. Never fewer reps than asked.
//   * Percentiles are perfbench::ExactPercentile's nearest rank, the median
//     included (on an even count, the lower middle sample).
//   * Json writes the result file: DDC_BENCH_JSON, else BENCH_<bench>.json,
//     always with the host's hardware_threads and affinity_cpus.

#ifndef DDC_BENCH_HARNESS_H_
#define DDC_BENCH_HARNESS_H_

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/span_stats.h"

namespace ddc::bench {

// Smoke phases shorter than this were start-up noise: one preemption moved a
// whole ratio. At this length a serial `ctest -L bench_smoke` takes ~15 s on
// a 4-thread host, against ~9 s with the fixed rep counts alone.
inline constexpr int64_t kMinPhaseNs = 200'000'000;

inline bool Smoke() {
  const char* env = std::getenv("DDC_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps a computed result alive so the work producing it is not elided.
template <typename T>
inline void Keep(const T& value) {
  benchmark::DoNotOptimize(value);
}

// The host's hardware threads (std::thread::hardware_concurrency).
inline int HardwareThreads() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

// The CPUs this process may run on: fewer than HardwareThreads() under
// `taskset` or a cpuset-limited container. Anything that claims parallelism
// must be decided from this count.
inline int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return HardwareThreads();
  return CPU_COUNT(&set);
}

// numer / denom, or 0 for an empty denominator.
inline double Ratio(double numer, double denom) {
  return denom == 0 ? 0.0 : numer / denom;
}

// Order statistics of one arm's timed runs.
struct Summary {
  std::vector<int64_t> samples;  // Nanoseconds, in the order they were taken.
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t min_ns = 0;
  int64_t total_ns = 0;

  int reps() const { return static_cast<int>(samples.size()); }
  // Mean rate over the phase: `units_per_rep` units per timed run.
  double PerSec(double units_per_rep) const {
    return total_ns == 0 ? 0.0
                         : static_cast<double>(samples.size()) *
                               units_per_rep /
                               (static_cast<double>(total_ns) * 1e-9);
  }
};

inline Summary Summarize(std::vector<int64_t> samples) {
  Summary s;
  s.samples = samples;
  for (int64_t ns : samples) s.total_ns += ns;
  s.min_ns = perfbench::ExactPercentile(samples, 0.0);
  s.p50_ns = perfbench::ExactPercentile(samples, 0.50);
  s.p99_ns = perfbench::ExactPercentile(samples, 0.99);
  return s;
}

// One side of a comparison.
struct Arm {
  int reps = 0;                        // Timed runs requested.
  std::function<void()> run;           // Timed.
  std::function<void()> prep = [] {};  // Untimed, before every run.
};

// Times `arms` as one phase, one run of each arm per round, always in arm
// order. (Starting every other round with the other arm, A B B A ..., runs
// each arm twice in a row at every such switch, and the second run finds
// its own data still in the CPU caches: that splits bench_cached_reads'
// per-pair write ratios into two modes, ~0.75 and ~1.2.) Arms asking for
// fewer reps than the largest request sit out rounds, spread evenly, so
// that every arm's share of the rounds matches its share of the reps.
// Returns one Summary per arm.
inline std::vector<Summary> Interleave(const std::vector<Arm>& arms) {
  int rounds = 0;
  for (const Arm& arm : arms) rounds = std::max(rounds, arm.reps);
  for (const Arm& arm : arms) {
    arm.prep();
    arm.run();  // Warm-up: faults in every node, fills every cache.
  }
  const bool top_up = Smoke();
  std::vector<std::vector<int64_t>> samples(arms.size());
  int64_t timed_ns = 0;
  for (int64_t r = 0; r < rounds || (top_up && timed_ns < kMinPhaseNs); ++r) {
    for (size_t i = 0; i < arms.size(); ++i) {
      if (static_cast<int64_t>(samples[i].size()) * rounds >=
          (r + 1) * arms[i].reps) {
        continue;
      }
      arms[i].prep();
      const int64_t start = NowNs();
      arms[i].run();
      const int64_t elapsed = NowNs() - start;
      samples[i].push_back(elapsed);
      timed_ns += elapsed;
    }
  }
  std::vector<Summary> result;
  for (std::vector<int64_t>& s : samples) result.push_back(Summarize(s));
  return result;
}

// A bench's result file, built member by member. Members of the top-level
// object and elements of its arrays start on a line of their own; anything
// nested deeper stays on its parent's line.
class Json {
 public:
  explicit Json(std::string bench) : bench_(std::move(bench)) {
    out_ = "{";
    closers_.push_back('}');
    Str("bench", bench_);
    Int("smoke", Smoke() ? 1 : 0);
    Int("hardware_threads", HardwareThreads());
    Int("affinity_cpus", AffinityCpus());
  }

  Json& Int(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Num(std::string_view key, double value, int digits = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return Raw(key, buf);
  }
  Json& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(std::string_view key, std::string_view value) {
    return Raw(key, "\"" + std::string(value) + "\"");
  }
  Json& Array(std::string_view key) { return Open(key, '[', ']'); }
  Json& Object() { return Open("", '{', '}'); }  // An array element.
  Json& End() {
    const char closer = closers_.back();
    closers_.pop_back();
    if (closers_.size() < 2) Newline();
    out_ += closer;
    first_ = false;
    return *this;
  }

  // Closes the document and writes it; false (after a message) on failure.
  bool Write() {
    while (!closers_.empty()) End();
    const char* env = std::getenv("DDC_BENCH_JSON");
    const std::string path = env != nullptr && env[0] != '\0'
                                 ? env
                                 : "BENCH_" + bench_ + ".json";
    std::ofstream file(path);
    file << out_ << "\n";
    file.close();
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  void Newline() {
    out_ += '\n';
    out_.append(2 * closers_.size(), ' ');
  }
  void Member(std::string_view key) {
    if (!first_) out_ += closers_.size() <= 2 ? "," : ", ";
    if (closers_.size() <= 2) Newline();
    if (!key.empty()) out_ += "\"" + std::string(key) + "\": ";
    first_ = false;
  }
  Json& Raw(std::string_view key, const std::string& value) {
    Member(key);
    out_ += value;
    return *this;
  }
  Json& Open(std::string_view key, char opener, char closer) {
    Member(key);
    out_ += opener;
    closers_.push_back(closer);
    first_ = true;
    return *this;
  }

  std::string bench_;
  std::string out_;
  std::vector<char> closers_;  // One per open container, innermost last.
  bool first_ = true;          // The innermost container is still empty.
};

}  // namespace ddc::bench

#endif  // DDC_BENCH_HARNESS_H_
