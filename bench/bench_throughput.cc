// E8 — the Section 1 "enabling threshold" argument, measured end to end:
// interleaved update/query throughput for every method, as a function of
// the update fraction of the workload.
//
// The paper's qualitative claim: with any non-trivial update rate, the
// constant-time-query methods (PS, RPS) collapse because each update costs
// O(n^d) / O(n^(d/2)), while the naive array collapses on queries; the DDC
// is the only method whose throughput stays flat across the mix. Who wins
// at 0% updates (PS), who wins at 100% (naive), and where the DDC dominates
// (everything in between) is the reproduced shape.

// Part 2 (below the paper sweep): concurrent throughput of the coarse
// ConcurrentCube versus the lock-striped ShardedCube (one reader-writer lock
// per shard, shard work run on the calling thread) across threads×shards, on
// a read-heavy (95/5) and a write-heavy (50/50) mix, plus the batched write
// path.
// Results are printed as tables and written to BENCH_throughput.json
// (override the path with DDC_BENCH_JSON).
//
// Honesty rule: the sharded-vs-coarse speedup is a scaling claim, and a
// process with one usable CPU (a 1-core host, or `taskset -c 0`) cannot
// measure scaling — every curve is a pure scheduling artifact there. Then
// the speedup keys are
// omitted entirely and the JSON carries "gate_skipped": true instead; the
// regression gate (tools/check_bench_regression.py --skip-if-key) turns
// that into a ctest SKIP rather than a green "passed" that asserted
// nothing. Setting DDC_BENCH_SMOKE shrinks the sweep for the
// `bench_smoke_throughput` gate; in smoke mode with several usable CPUs the
// binary also enforces the sharded>=coarse floor itself (nonzero exit).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cube_interface.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "concurrent/concurrent_cube.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "harness.h"
#include "naive/naive_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

double MeasureOpsPerSec(CubeInterface* cube, const Shape& shape,
                        double update_fraction, int ops, uint64_t seed) {
  WorkloadGenerator gen(shape, seed);
  // Pre-generate the trace so generation cost is excluded.
  struct Op {
    bool is_update;
    Cell cell;
    int64_t delta;
    Box box;
  };
  std::vector<Op> trace;
  trace.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.is_update = gen.Value(0, 999) < static_cast<int64_t>(
                                           update_fraction * 1000.0);
    op.cell = gen.UniformCell();
    op.delta = gen.Value(1, 9);
    op.box = gen.BoxWithSideFraction(0.25);
    trace.push_back(op);
  }

  int64_t sink = 0;
  const int64_t start = bench::NowNs();
  for (const Op& op : trace) {
    if (op.is_update) {
      cube->Add(op.cell, op.delta);
    } else {
      sink += cube->RangeSum(op.box);
    }
  }
  const int64_t elapsed = bench::NowNs() - start;
  bench::Keep(sink);
  return static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed);
}

void RunMixSweep(int64_t n) {
  std::printf("== Interleaved throughput (ops/sec), d=2, n=%lld ==\n",
              static_cast<long long>(n));
  const Shape shape = Shape::Cube(2, n);
  TablePrinter table({"update %", "naive", "prefix_sum", "relative_ps",
                      "ddc", "winner"});

  for (double frac : {0.0, 0.01, 0.1, 0.5, 0.9, 1.0}) {
    // Fresh structures per mix, pre-populated identically.
    NaiveCube naive(shape);
    PrefixSumCube ps(shape);
    RelativePrefixSumCube rps(shape);
    DynamicDataCube ddc_cube(2, n);
    WorkloadGenerator seed_gen(shape, 1);
    for (const UpdateOp& op : seed_gen.UniformUpdates(500, 1, 9)) {
      naive.Add(op.cell, op.delta);
      ps.Add(op.cell, op.delta);
      rps.Add(op.cell, op.delta);
      ddc_cube.Add(op.cell, op.delta);
    }

    // Budget ops by how slow each structure is at this size.
    const int ops = 400;
    const double naive_tput = MeasureOpsPerSec(&naive, shape, frac, ops, 9);
    const double ps_tput = MeasureOpsPerSec(&ps, shape, frac, ops, 9);
    const double rps_tput = MeasureOpsPerSec(&rps, shape, frac, ops, 9);
    const double ddc_tput = MeasureOpsPerSec(&ddc_cube, shape, frac, ops, 9);

    const char* winner = "ddc";
    double best = ddc_tput;
    if (naive_tput > best) {
      best = naive_tput;
      winner = "naive";
    }
    if (ps_tput > best) {
      best = ps_tput;
      winner = "prefix_sum";
    }
    if (rps_tput > best) {
      best = rps_tput;
      winner = "relative_ps";
    }

    char frac_label[16];
    std::snprintf(frac_label, sizeof(frac_label), "%.0f%%", frac * 100.0);
    table.AddRow({frac_label, TablePrinter::FormatDouble(naive_tput, 0),
                  TablePrinter::FormatDouble(ps_tput, 0),
                  TablePrinter::FormatDouble(rps_tput, 0),
                  TablePrinter::FormatDouble(ddc_tput, 0), winner});
  }
  table.Print();
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Part 2: threads × shards scaling, coarse vs sharded vs sharded+batched.

enum class Impl { kCoarse, kSharded, kShardedBatched };

const char* ImplName(Impl impl) {
  switch (impl) {
    case Impl::kCoarse:
      return "coarse";
    case Impl::kSharded:
      return "sharded";
    case Impl::kShardedBatched:
      return "sharded_batched";
  }
  return "?";
}

struct TraceOp {
  bool is_update;
  Cell cell;
  int64_t delta;
  Box box;
};

constexpr int kConcDims = 2;
constexpr size_t kWriteBatch = 32;
// Queries sized to usually fit inside one slab at S=8, the locality a
// partitioned deployment would aim for.
constexpr double kQuerySideFraction = 0.08;

// Sweep sizes; smoke mode shrinks everything so the whole concurrency
// sweep finishes in seconds (the bench_smoke_throughput ctest gate runs it
// on every `ctest -L bench_smoke` invocation).
struct ConcParams {
  int64_t side;
  int ops_per_thread;
  int prepopulate;
  int reps;
};

ConcParams ConcParamsFor(bool smoke) {
  if (smoke) return {64, 800, 300, 2};
  return {256, 6000, 2000, 3};
}

std::vector<TraceOp> MakeTrace(const ConcParams& params,
                               double update_fraction, uint64_t seed) {
  WorkloadGenerator gen(Shape::Cube(kConcDims, params.side), seed);
  std::vector<TraceOp> trace;
  trace.reserve(static_cast<size_t>(params.ops_per_thread));
  for (int i = 0; i < params.ops_per_thread; ++i) {
    TraceOp op;
    op.is_update =
        gen.Value(0, 999) < static_cast<int64_t>(update_fraction * 1000.0);
    op.cell = gen.UniformCell();
    op.delta = gen.Value(1, 9);
    op.box = gen.BoxWithSideFraction(kQuerySideFraction);
    trace.push_back(op);
  }
  return trace;
}

// One timed run on a fresh, identically pre-populated cube. The
// constructor builds the cube and the per-thread traces and starts the
// threads, which spin until Go() releases them and waits for them to finish.
class ConcurrentRun {
 public:
  ConcurrentRun(const ConcParams& params, Impl impl, int num_shards,
                int threads, double update_fraction, uint64_t seed)
      : impl_(impl) {
    if (impl == Impl::kCoarse) {
      coarse_ = std::make_unique<ConcurrentCube>(kConcDims, params.side);
    } else {
      sharded_ =
          std::make_unique<ShardedCube>(kConcDims, params.side, num_shards);
    }
    WorkloadGenerator seed_gen(Shape::Cube(kConcDims, params.side), 1);
    for (const UpdateOp& op :
         seed_gen.UniformUpdates(params.prepopulate, 1, 9)) {
      if (coarse_) {
        coarse_->Add(op.cell, op.delta);
      } else {
        sharded_->Add(op.cell, op.delta);
      }
    }
    for (int t = 0; t < threads; ++t) {
      traces_.push_back(
          MakeTrace(params, update_fraction, seed + 31u * (t + 1)));
    }
    for (int t = 0; t < threads; ++t) {
      pool_.emplace_back([this, t] { Work(traces_[static_cast<size_t>(t)]); });
    }
  }
  ~ConcurrentRun() { Go(); }
  ConcurrentRun(const ConcurrentRun&) = delete;
  ConcurrentRun& operator=(const ConcurrentRun&) = delete;

  void Go() {
    go_.store(true, std::memory_order_release);
    for (std::thread& worker : pool_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  void Work(const std::vector<TraceOp>& trace) {
    while (!go_.load(std::memory_order_acquire)) {
    }
    int64_t local = 0;
    std::vector<UpdateOp> batch;
    batch.reserve(kWriteBatch);
    for (const TraceOp& op : trace) {
      if (op.is_update) {
        switch (impl_) {
          case Impl::kCoarse:
            coarse_->Add(op.cell, op.delta);
            break;
          case Impl::kSharded:
            sharded_->Add(op.cell, op.delta);
            break;
          case Impl::kShardedBatched:
            batch.push_back({op.cell, op.delta, UpdateKind::kAdd});
            if (batch.size() >= kWriteBatch) {
              sharded_->ApplyBatch(batch);
              batch.clear();
            }
            break;
        }
      } else {
        local += coarse_ ? coarse_->RangeSum(op.box)
                         : sharded_->RangeSum(op.box);
      }
    }
    if (!batch.empty()) sharded_->ApplyBatch(batch);
    bench::Keep(local);
  }

  const Impl impl_;
  std::unique_ptr<ConcurrentCube> coarse_;
  std::unique_ptr<ShardedCube> sharded_;
  std::vector<std::vector<TraceOp>> traces_;
  std::atomic<bool> go_{false};
  std::vector<std::thread> pool_;  // Last: joined before the rest goes.
};

// Order statistics of one configuration's runs (a first, untimed run
// absorbs one-time costs — page faults, lazy tree materialization, thread
// startup jitter): the median is the headline, min and p99 (the fastest run
// at this sample count) bound the spread.
struct TputStats {
  double median = 0;
  double min = 0;
  double p99 = 0;
  int reps = 0;
};

TputStats StatsOf(const bench::Summary& runs, double ops) {
  const int64_t slowest =
      *std::max_element(runs.samples.begin(), runs.samples.end());
  return {ops * 1e9 / static_cast<double>(runs.p50_ns),
          ops * 1e9 / static_cast<double>(slowest),
          ops * 1e9 / static_cast<double>(runs.min_ns), runs.reps()};
}

struct CurvePoint {
  Impl impl;
  int shards;
  int threads;
  double update_fraction;
  TputStats tput;
};

int RunConcurrencySweep(bool smoke) {
  const ConcParams params = ConcParamsFor(smoke);
  // Parallelism is decided from the CPUs this process may run on, not the
  // host's hardware threads: under `taskset -c 0` a 4-thread host runs
  // every curve time-sliced on one CPU.
  const int cpus = bench::AffinityCpus();
  std::printf(
      "== Concurrent throughput (ops/sec), d=%d, n=%lld, %d usable CPUs of "
      "%d hw threads%s ==\n",
      kConcDims, static_cast<long long>(params.side), cpus,
      bench::HardwareThreads(), smoke ? " [smoke]" : "");

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  struct Config {
    Impl impl;
    int shards;
  };
  const std::vector<Config> configs = {{Impl::kCoarse, 1},
                                       {Impl::kSharded, 2},
                                       {Impl::kSharded, 4},
                                       {Impl::kSharded, 8},
                                       {Impl::kShardedBatched, 8}};

  std::vector<CurvePoint> curve;
  for (double frac : {0.05, 0.5}) {
    // At each thread count the five configurations are timed interleaved,
    // each run on a fresh cube built by its untimed prep.
    std::vector<std::vector<TputStats>> tput(configs.size());
    for (int threads : thread_counts) {
      std::vector<std::unique_ptr<ConcurrentRun>> live(configs.size());
      std::vector<uint64_t> runs(configs.size(), 0);
      std::vector<bench::Arm> arms;
      for (size_t c = 0; c < configs.size(); ++c) {
        arms.push_back({params.reps, [&, c] { live[c]->Go(); }, [&, c] {
                          live[c].reset();
                          live[c] = std::make_unique<ConcurrentRun>(
                              params, configs[c].impl, configs[c].shards,
                              threads, frac, 1234 + 977u * runs[c]++);
                        }});
      }
      const std::vector<bench::Summary> timed = bench::Interleave(arms);
      for (size_t c = 0; c < configs.size(); ++c) {
        tput[c].push_back(
            StatsOf(timed[c], static_cast<double>(threads) *
                                  params.ops_per_thread));
      }
    }
    std::printf("-- update fraction %.0f%% --\n", frac * 100.0);
    TablePrinter table({"impl", "shards", "1 thr", "2 thr", "4 thr", "8 thr"});
    for (size_t c = 0; c < configs.size(); ++c) {
      std::vector<std::string> row = {ImplName(configs[c].impl),
                                      std::to_string(configs[c].shards)};
      for (size_t t = 0; t < thread_counts.size(); ++t) {
        curve.push_back({configs[c].impl, configs[c].shards,
                         thread_counts[t], frac, tput[c][t]});
        row.push_back(TablePrinter::FormatDouble(tput[c][t].median, 0));
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }

  // Scaling headline — only when the hardware can actually scale. With one
  // usable CPU every multi-thread curve is a scheduling artifact (the
  // threads time-slice one core), so printing a "speedup" would be
  // measuring the scheduler, not the cube. In that case the speedup keys
  // are omitted and the JSON says so via "gate_skipped".
  const int max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  const bool gate_skipped = cpus <= 1;
  // The gate compares at the widest thread count the CPUs genuinely run in
  // parallel, so the floor is a contention measurement even on hosts
  // narrower than the widest curve.
  int gate_threads = 1;
  for (int t : thread_counts) {
    if (t <= cpus && t > gate_threads) gate_threads = t;
  }

  double coarse_8t = 0, sharded_8t = 0, coarse_gate = 0, sharded_gate = 0;
  for (const CurvePoint& p : curve) {
    if (p.update_fraction != 0.05) continue;
    if (p.impl == Impl::kCoarse) {
      if (p.threads == max_threads) coarse_8t = p.tput.median;
      if (p.threads == gate_threads) coarse_gate = p.tput.median;
    }
    if (p.impl == Impl::kSharded && p.shards == 8) {
      if (p.threads == max_threads) sharded_8t = p.tput.median;
      if (p.threads == gate_threads) sharded_gate = p.tput.median;
    }
  }
  const double speedup = coarse_8t > 0 ? sharded_8t / coarse_8t : 0;
  const double gate_speedup =
      coarse_gate > 0 ? sharded_gate / coarse_gate : 0;
  if (gate_skipped) {
    std::printf(
        "scaling GATE SKIPPED: 1 usable CPU — multi-thread curves above are "
        "time-sliced, no speedup claim is made\n\n");
  } else {
    std::printf(
        "read-heavy (95/5) %d-thread speedup, sharded S=8 vs coarse: "
        "%.2fx (gate at %d threads: %.2fx)\n\n",
        max_threads, speedup, gate_threads, gate_speedup);
  }

  // Record the over-subscription factor of the widest configuration so a
  // reader (or the regression checker) can tell contention effects from
  // scheduling artifacts.
  bench::Json json("throughput");
  json.Int("dims", kConcDims)
      .Int("domain_side", params.side)
      .Int("ops_per_thread", params.ops_per_thread)
      .Int("max_bench_threads", max_threads)
      .Num("oversubscription_factor",
           static_cast<double>(max_threads) / std::max(cpus, 1), 2)
      .Int("write_batch", static_cast<int64_t>(kWriteBatch))
      .Num("query_side_fraction", kQuerySideFraction);
  if (gate_skipped) {
    // The key is present only when the gate is skipped, so
    // `check_bench_regression.py --skip-if-key gate_skipped` fires iff
    // either side of a comparison was produced on a can't-scale host.
    json.Bool("gate_skipped", true);
  } else {
    json.Num("read_heavy_speedup_" + std::to_string(max_threads) +
                 "t_s8_vs_coarse",
             speedup)
        .Int("gate_threads", gate_threads)
        .Num("gate_speedup_s8_vs_coarse", gate_speedup);
  }
  json.Array("curves");
  for (const CurvePoint& p : curve) {
    json.Object()
        .Str("impl", ImplName(p.impl))
        .Int("shards", p.shards)
        .Int("threads", p.threads)
        .Num("update_fraction", p.update_fraction, 2)
        .Num("ops_per_sec", p.tput.median, 1)
        .Num("ops_per_sec_min", p.tput.min, 1)
        .Num("ops_per_sec_p99", p.tput.p99, 1)
        .Int("reps", p.tput.reps)
        .Bool("oversubscribed", p.threads > cpus)
        .End();
  }
  if (!json.Write()) return 1;

  // Acceptance floor, enforced where the regression gate can see it: with
  // real parallelism available, the lock-striped sharded cube must at least
  // match the coarse global lock on the read-heavy mix at the widest
  // parallel thread count. Smoke-only so a full run stays a measurement.
  if (smoke && !gate_skipped && gate_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: read-heavy sharded S=8 vs coarse at %d threads is "
                 "%.2fx, below the 1.0x floor\n",
                 gate_threads, gate_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ddc

int main() {
  const bool smoke = ddc::bench::Smoke();
  if (!smoke) {
    ddc::RunMixSweep(256);
    ddc::RunMixSweep(512);
    // Larger domain: the RPS update cascade (O(n) cells at d=2) becomes the
    // bottleneck and the DDC overtakes it on update-heavy mixes.
    ddc::RunMixSweep(2048);
  }
  // Smoke mode gates only the concurrent sweep: the paper mix sweep has no
  // speedup contract, just the reproduced shape.
  return ddc::RunConcurrencySweep(smoke);
}
