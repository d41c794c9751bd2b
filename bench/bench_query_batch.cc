// Batched range-sum executor benchmark: the perf side of the arena +
// batching PR. For each dimensionality we time the same query batch three
// ways —
//   single           : a loop of RangeSum calls (the pre-batching baseline),
//   batched          : DynamicDataCube::RangeSumBatch (corner dedup, then
//                      tree-ordered prefix-sum descents),
//   batched_parallel : RangeSumBatch on a one-shard ShardedCube, the coarse
//                      facade (the whole batch in one batched call under
//                      one shared lock; the row prices the thread-safe
//                      facade against `batched`).
// The batch mixes rollup-style adjacent slices (the OLAP GroupBy shape,
// where neighbouring slices share half their corner sets) with uniform
// boxes, matching the executor's real traffic.
//
// Writes BENCH_query_batch.json (override the path with DDC_BENCH_JSON).
// Setting DDC_BENCH_SMOKE shrinks every size so the whole run finishes in
// well under a second — used by the `bench_smoke` ctest regression gate.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/range.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "harness.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/workload_recorder.h"

namespace ddc {
namespace {

// Contiguous slabs along dimension 0 over a common body box — the shape the
// OLAP executor actually batches (GroupBy materializes one slice per group
// key). Adjacent slabs share an entire corner hyperplane (next.lo - 1 ==
// prev.hi), so the dedup map collapses half of all corner prefix sums.
std::vector<Box> MakeQueryBatch(WorkloadGenerator& gen, int dims,
                                int64_t side, size_t count) {
  std::vector<Box> boxes;
  boxes.reserve(count);
  Box body;
  body.lo = Cell(static_cast<size_t>(dims), side / 8);
  body.hi = Cell(static_cast<size_t>(dims), side - side / 8 - 1);
  const int64_t span = body.hi[0] - body.lo[0] + 1;
  int64_t pos = body.lo[0];
  for (size_t i = 0; i < count; ++i) {
    // Slab thickness varies like a skewed group-key distribution.
    const int64_t width = gen.Value(1, 4);
    if (pos + width - 1 > body.hi[0]) pos = body.lo[0] + (pos % span) % 3;
    Box slab = body;
    slab.lo[0] = pos;
    slab.hi[0] = pos + width - 1;
    pos += width;
    boxes.push_back(slab);
  }
  return boxes;
}

struct ConfigResult {
  int dims;
  int64_t side;
  size_t batch_size;
  int64_t inserts;
  bench::Summary single;
  bench::Summary batched;
  bench::Summary parallel;
  double qps(const bench::Summary& mode) const {
    return mode.PerSec(static_cast<double>(batch_size));
  }
};

ConfigResult RunConfig(int dims, int64_t side, size_t batch_size, int reps,
                       int64_t inserts) {
  ConfigResult result{dims, side, batch_size, inserts, {}, {}, {}};
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 97);

  DynamicDataCube cube(dims, side);
  ShardedCube concurrent(dims, side, 1);
  for (int64_t i = 0; i < inserts; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t delta = gen.Value(-9, 9);
    cube.Add(cell, delta);
    concurrent.Add(cell, delta);
  }

  const std::vector<Box> boxes = MakeQueryBatch(gen, dims, side, batch_size);
  std::vector<int64_t> out(boxes.size());
  const std::vector<bench::Summary> timed = bench::Interleave(
      {{reps,
        [&] {
          int64_t local = 0;
          for (const Box& box : boxes) local += cube.RangeSum(box);
          bench::Keep(local);
        }},
       {reps,
        [&] {
          cube.RangeSumBatch(boxes, out);
          bench::Keep(out[0]);
        }},
       {reps, [&] {
          concurrent.RangeSumBatch(boxes, out);
          bench::Keep(out[0]);
        }}});
  result.single = timed[0];
  result.batched = timed[1];
  result.parallel = timed[2];
  return result;
}

// --- Introspection overhead gate -------------------------------------------
//
// PR contract (DESIGN.md §14): the workload recorder + cost ledger may add
// at most 5% to batched-query p50 latency on top of the obs-enabled
// baseline. Both legs run with observability enabled (the registry counters
// predate this machinery and are budgeted separately); the OFF leg turns
// heatmap recording off and installs no ledger, the ON leg records and runs
// under a ScopedCostLedger. The two legs are sampled interleaved
// (bench::Interleave), so clock-frequency drift, cache evictions and
// scheduler noise hit both legs identically and cancel in the ratio;
// measuring the legs as two sequential blocks showed swings of -11%..+8%
// on an otherwise idle host. Best-of-N attempts on top so one hiccup
// cannot fail the gate spuriously. Skipped (trivially passing) when obs is
// compiled out — SetEnabled(true) cannot flip the constexpr-false
// Enabled().

struct GateResult {
  double overhead_p50 = 0;  // on_p50 / off_p50 - 1, best attempt.
  bool skipped = false;
  bool pass = false;
};

GateResult RunIntrospectionGate(int reps) {
  constexpr double kLimit = 0.05;
  GateResult gate;
  obs::SetEnabled(true);
  if (!obs::Enabled()) {  // Compiled out: nothing to measure.
    gate.skipped = true;
    gate.pass = true;
    return gate;
  }

  // The headline 2-D geometry at full depth: recorder + ledger cost is
  // constant per box, so gating on a toy-depth cube would overstate the
  // relative overhead of realistic descents.
  const int dims = 2;
  const int64_t side = 1024;
  const size_t batch = 64;
  const int64_t inserts = 4000;
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 131);
  DynamicDataCube cube(dims, side);
  for (int64_t i = 0; i < inserts; ++i) {
    cube.Add(gen.UniformCell(), gen.Value(-9, 9));
  }
  const std::vector<Box> boxes = MakeQueryBatch(gen, dims, side, batch);
  std::vector<int64_t> out(boxes.size());
  const auto plain = [&] {
    cube.RangeSumBatch(boxes, out);
    bench::Keep(out[0]);
  };
  const auto instrumented = [&] {
    obs::CostLedger ledger;
    obs::ScopedCostLedger scope(&ledger);
    cube.RangeSumBatch(boxes, out);
    bench::Keep(out[0] + ledger.nodes_visited);
  };

  constexpr int kAttempts = 5;
  double best = 1e9;
  for (int a = 0; a < kAttempts && best > kLimit; ++a) {
    const std::vector<bench::Summary> legs = bench::Interleave(
        {{reps, plain, [] { obs::WorkloadRecorder::SetRecording(false); }},
         {reps, instrumented,
          [] { obs::WorkloadRecorder::SetRecording(true); }}});
    best = std::min(best, bench::Ratio(legs[1].p50_ns, legs[0].p50_ns) - 1.0);
  }
  obs::WorkloadRecorder::SetRecording(true);
  gate.overhead_p50 = best;
  gate.pass = best <= kLimit;
  return gate;
}

int Run() {
  const bool smoke = bench::Smoke();
  struct Geometry {
    int dims;
    int64_t side;
    size_t batch;
    int reps;
    int64_t inserts;
  };
  // The 2-D entry is the headline configuration (side 1024 in the full
  // run); keep it second so dims stay in ascending order in the report.
  const std::vector<Geometry> geometries =
      // Smoke reps are 100 so the nearest-rank p99 lands on the 99th
      // sample, not the max — the gated tail ratios must survive a noisy
      // single-core CI host.
      smoke ? std::vector<Geometry>{{1, 1024, 64, 100, 2000},
                                    {2, 128, 64, 100, 2000},
                                    {3, 16, 32, 100, 1000}}
            : std::vector<Geometry>{{1, 65536, 1024, 20, 20000},
                                    {2, 1024, 512, 20, 20000},
                                    {3, 64, 256, 20, 20000}};

  const int hardware = bench::HardwareThreads();
  const int pool_threads = ThreadPool::Shared().num_threads();
  std::printf("== Batched range-sum executor (queries/sec)%s — "
              "%d hw threads, %d pool workers ==\n",
              smoke ? " [smoke]" : "", hardware, pool_threads);

  std::vector<ConfigResult> results;
  TablePrinter table({"dims", "side", "batch", "single q/s", "batched q/s",
                      "parallel q/s", "batched/single", "parallel/single",
                      "batched p99 us"});
  for (const Geometry& g : geometries) {
    const ConfigResult r =
        RunConfig(g.dims, g.side, g.batch, g.reps, g.inserts);
    results.push_back(r);
    table.AddRow(
        {std::to_string(r.dims), std::to_string(r.side),
         std::to_string(r.batch_size),
         TablePrinter::FormatDouble(r.qps(r.single), 0),
         TablePrinter::FormatDouble(r.qps(r.batched), 0),
         TablePrinter::FormatDouble(r.qps(r.parallel), 0),
         TablePrinter::FormatDouble(r.qps(r.batched) / r.qps(r.single), 2),
         TablePrinter::FormatDouble(r.qps(r.parallel) / r.qps(r.single), 2),
         TablePrinter::FormatDouble(
             static_cast<double>(r.batched.p99_ns) / 1000.0, 1)});
  }
  table.Print();

  // Headline: the 2-D configuration's batched-over-single speedup.
  double headline_batched = 0;
  double headline_parallel = 0;
  for (const ConfigResult& r : results) {
    if (r.dims == 2) {
      headline_batched = r.qps(r.batched) / r.qps(r.single);
      headline_parallel = r.qps(r.parallel) / r.qps(r.single);
    }
  }
  std::printf("2-D batched vs single-query speedup: %.2fx "
              "(parallel: %.2fx)\n\n",
              headline_batched, headline_parallel);

  const GateResult gate = RunIntrospectionGate(smoke ? 100 : 20);
  if (gate.skipped) {
    std::printf("introspection overhead gate: skipped "
                "(observability compiled out)\n\n");
  } else {
    std::printf("introspection overhead gate: p50 overhead %+.1f%% "
                "(limit 5%%) — %s\n\n",
                gate.overhead_p50 * 100.0, gate.pass ? "PASS" : "FAIL");
  }

  // introspection_overhead_p50 deliberately avoids the "speedup"/"ratio"
  // key substrings: it is gated here by exit code, not by the baseline
  // comparison in check_bench_regression.py.
  bench::Json json("query_batch");
  json.Int("pool_threads", pool_threads)
      .Num("speedup_batched_vs_single_2d", headline_batched)
      .Num("speedup_parallel_vs_single_2d", headline_parallel)
      .Num("introspection_overhead_p50", gate.overhead_p50, 4)
      .Int("introspection_gate_skipped", gate.skipped ? 1 : 0)
      .Array("configs");
  for (const ConfigResult& r : results) {
    // The speedup_batched_p* keys compare tail latencies (single over
    // batched, so higher still means batching wins); the regression gate
    // applies its wider --p99-tolerance band to the p99 one. The parallel
    // path's p99 is embedded raw but deliberately NOT emitted as a gated
    // ratio: one scheduler hiccup on a small host moves it enough to fail
    // the gate spuriously.
    json.Object()
        .Int("dims", r.dims)
        .Int("side", r.side)
        .Int("batch", static_cast<int64_t>(r.batch_size))
        .Int("reps", r.batched.reps())
        .Int("inserts", r.inserts)
        .Num("single_qps", r.qps(r.single), 1)
        .Num("batched_qps", r.qps(r.batched), 1)
        .Num("parallel_qps", r.qps(r.parallel), 1)
        .Num("speedup_batched", r.qps(r.batched) / r.qps(r.single))
        .Num("speedup_parallel", r.qps(r.parallel) / r.qps(r.single));
    for (const auto& [name, mode] :
         {std::pair{"single", &r.single}, std::pair{"batched", &r.batched},
          std::pair{"parallel", &r.parallel}}) {
      json.Int(std::string(name) + "_p50_ns", mode->p50_ns)
          .Int(std::string(name) + "_p99_ns", mode->p99_ns)
          .Int(std::string(name) + "_min_ns", mode->min_ns);
    }
    json.Num("speedup_batched_p50",
             bench::Ratio(r.single.p50_ns, r.batched.p50_ns))
        .Num("speedup_batched_p99",
             bench::Ratio(r.single.p99_ns, r.batched.p99_ns))
        .End();
  }
  if (!json.Write()) return 1;
  if (!gate.pass) {
    std::fprintf(stderr,
                 "introspection overhead gate FAILED: p50 overhead %.1f%% "
                 "exceeds the 5%% budget\n",
                 gate.overhead_p50 * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ddc

int main() { return ddc::Run(); }
