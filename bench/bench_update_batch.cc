// Batched update pipeline benchmark: the perf side of the unified mutation
// PR. For each dimensionality we apply the same ingest-shaped mutation
// batch two ways —
//   looped  : a loop of Add calls (the pre-batching baseline),
//   batched : DynamicDataCube::ApplyBatch (per-cell coalescing, then one
//             Figure-12 point descent per distinct cell, in tree order).
// The batch is ingest-shaped, matching real streaming traffic (most
// updates hit a small hot working set, so cells repeat within a batch):
// coalescing collapses the repeats to one net delta per cell, so the
// batch pays one descent per distinct cell instead of one per update,
// which is where the batched win comes from.
//
// The two modes are timed interleaved (bench/harness.h). Writes
// BENCH_update_batch.json (override the path with DDC_BENCH_JSON). Setting
// DDC_BENCH_SMOKE shrinks every size for the `bench_smoke` ctest regression
// gate, and the harness then runs each phase for a fixed minimum time. In
// smoke mode the binary also enforces the acceptance floor itself: it exits
// nonzero unless the 2-D batch-1024 configuration shows batched >= 1.5x
// looped, so the gate is a hard bound, not only a baseline ratio check.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/mutation.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "harness.h"

namespace ddc {
namespace {

// Ingest-shaped point deltas: streaming writers overwhelmingly hit a small
// working set of hot entities, with a uniform cold tail spreading the rest
// of the descents across the tree. Three of four updates land in the hot
// set, so cells repeat inside one batch and the coalescing layer does real
// work. (A per-coordinate Zipf draw does NOT model this: the product
// distribution over 2+ dims almost never repeats a full cell.)
MutationBatch MakeUpdateBatch(WorkloadGenerator& gen, size_t count) {
  constexpr int64_t kHotCells = 128;
  std::vector<Cell> hot;
  hot.reserve(static_cast<size_t>(kHotCells));
  for (int64_t i = 0; i < kHotCells; ++i) hot.push_back(gen.UniformCell());
  MutationBatch batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Cell cell = (i % 4 == 3)
                    ? gen.UniformCell()
                    : hot[static_cast<size_t>(gen.Value(0, kHotCells - 1))];
    batch.push_back(
        Mutation{std::move(cell), gen.Value(-9, 9), MutationKind::kAdd});
  }
  return batch;
}

struct ConfigResult {
  int dims;
  int64_t side;
  size_t batch_size;
  int64_t inserts;
  bench::Summary looped;
  bench::Summary batched;
  double looped_ups() const { return looped.PerSec(batch_size); }
  double batched_ups() const { return batched.PerSec(batch_size); }
};

ConfigResult RunConfig(int dims, int64_t side, size_t batch_size, int reps,
                       int64_t inserts) {
  ConfigResult result{dims, side, batch_size, inserts, {}, {}};
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 97);

  // Two cubes with identical pre-population; each mode re-applies the same
  // batch every rep (values accumulate, geometry does not change — every
  // cell stays inside the seed domain, so no re-roots perturb the timing).
  DynamicDataCube looped_cube(dims, side);
  DynamicDataCube batched_cube(dims, side);
  for (int64_t i = 0; i < inserts; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t delta = gen.Value(-9, 9);
    looped_cube.Add(cell, delta);
    batched_cube.Add(cell, delta);
  }

  const MutationBatch batch = MakeUpdateBatch(gen, batch_size);

  const std::vector<bench::Summary> timed = bench::Interleave(
      {{reps, [&] {
          for (const Mutation& m : batch) looped_cube.Add(m.cell, m.delta);
        }},
       {reps, [&] { batched_cube.ApplyBatch(batch); }}});
  result.looped = timed[0];
  result.batched = timed[1];
  return result;
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
  // The 2-D batch-1024 entry is the headline (and, in smoke mode, the
  // gated floor); dims ascend so reports line up with the query bench.
  // Smoke reps are 100 so the nearest-rank p99 is the 99th sample, not the
  // max of a handful.
  const std::vector<Geometry> geometries =
      smoke ? std::vector<Geometry>{{1, 4096, 1024, 100, 2000},
                                    {2, 256, 1024, 100, 2000},
                                    {3, 16, 512, 100, 1000}}
            : std::vector<Geometry>{{1, 65536, 1024, 30, 20000},
                                    {2, 1024, 1024, 30, 20000},
                                    {3, 64, 1024, 30, 20000}};

  std::printf("== Batched update pipeline (mutations/sec)%s ==\n",
              smoke ? " [smoke]" : "");

  std::vector<ConfigResult> results;
  TablePrinter table({"dims", "side", "batch", "looped u/s", "batched u/s",
                      "batched/looped", "batched p99 us"});
  for (const Geometry& g : geometries) {
    const ConfigResult r =
        RunConfig(g.dims, g.side, g.batch, g.reps, g.inserts);
    results.push_back(r);
    table.AddRow({std::to_string(r.dims), std::to_string(r.side),
                  std::to_string(r.batch_size),
                  TablePrinter::FormatDouble(r.looped_ups(), 0),
                  TablePrinter::FormatDouble(r.batched_ups(), 0),
                  TablePrinter::FormatDouble(
                      r.batched_ups() / r.looped_ups(), 2),
                  TablePrinter::FormatDouble(
                      static_cast<double>(r.batched.p99_ns) / 1000.0, 1)});
  }
  table.Print();

  // Headline: the 2-D configuration's batched-over-looped speedup.
  double headline = 0;
  for (const ConfigResult& r : results) {
    if (r.dims == 2) headline = r.batched_ups() / r.looped_ups();
  }
  std::printf("2-D batched vs looped update speedup: %.2fx\n\n", headline);

  bench::Json json("update_batch");
  json.Num("speedup_batched_vs_looped_2d", headline).Array("configs");
  for (const ConfigResult& r : results) {
    // The speedup_batched_p* keys compare tail latencies (looped over
    // batched, so higher still means batching wins); the regression gate
    // applies its wider --p99-tolerance band to the p99 one.
    json.Object()
        .Int("dims", r.dims)
        .Int("side", r.side)
        .Int("batch", static_cast<int64_t>(r.batch_size))
        .Int("reps", r.batched.reps())
        .Int("inserts", r.inserts)
        .Num("looped_ups", r.looped_ups(), 1)
        .Num("batched_ups", r.batched_ups(), 1)
        .Num("speedup_batched", r.batched_ups() / r.looped_ups())
        .Int("looped_p50_ns", r.looped.p50_ns)
        .Int("looped_p99_ns", r.looped.p99_ns)
        .Int("looped_min_ns", r.looped.min_ns)
        .Int("batched_p50_ns", r.batched.p50_ns)
        .Int("batched_p99_ns", r.batched.p99_ns)
        .Int("batched_min_ns", r.batched.min_ns)
        .Num("speedup_batched_p50", bench::Ratio(r.looped.p50_ns,
                                                 r.batched.p50_ns))
        .Num("speedup_batched_p99", bench::Ratio(r.looped.p99_ns,
                                                 r.batched.p99_ns))
        .End();
  }
  if (!json.Write()) return 1;

  // Acceptance floor, enforced where the regression gate can see it.
  if (smoke && headline < 1.5) {
    std::fprintf(stderr,
                 "FAIL: 2-D batch-1024 batched/looped speedup %.2fx is "
                 "below the 1.5x floor\n",
                 headline);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ddc

int main() { return ddc::Run(); }
