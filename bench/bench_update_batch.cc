// Batched update pipeline benchmark: the perf side of the unified mutation
// PR. For each dimensionality we apply the same ingest-shaped mutation
// batch two ways —
//   looped  : a loop of Add calls (the pre-batching baseline),
//   batched : DynamicDataCube::ApplyBatch (per-cell coalescing + one
//             shared Figure-12 descent per distinct node group).
// The batch is ingest-shaped, matching real streaming traffic (most
// updates hit a small hot working set, so cells repeat within a batch):
// coalescing collapses the repeats to one net delta per cell and the
// shared descent visits each touched subtree once per level, which is
// where the batched win comes from.
//
// Writes BENCH_update_batch.json (override the path with DDC_BENCH_JSON).
// Setting DDC_BENCH_SMOKE shrinks every size so the whole run finishes in
// well under a second — used by the `bench_smoke` ctest regression gate. In
// smoke mode the binary also enforces the acceptance floor itself: it exits
// nonzero unless the 2-D batch-1024 configuration shows batched >= 1.5x
// looped, so the gate is a hard bound, not only a baseline ratio check.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_host.h"
#include "common/mutation.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

bool SmokeMode() {
  const char* env = std::getenv("DDC_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

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

// Exact percentile of a sample vector (nearest-rank); sorts in place.
int64_t ExactPercentile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

struct LatencyResult {
  double ups = 0;      // Mean mutations/sec over the measured reps.
  int64_t p50_ns = 0;  // Per-batch wall latency percentiles, computed
  int64_t p99_ns = 0;  // exactly from the per-rep samples — these feed the
  int64_t min_ns = 0;  // regression gate.
};

template <typename Fn>
LatencyResult MeasureLatency(size_t batch_size, int reps, const Fn& fn) {
  fn();  // Warm-up: builds every node the batch will ever touch.
  std::vector<int64_t> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  }
  int64_t total_ns = 0;
  for (int64_t s : samples) total_ns += s;
  LatencyResult result;
  result.ups = static_cast<double>(reps) * static_cast<double>(batch_size) /
               (static_cast<double>(total_ns) * 1e-9);
  result.min_ns = *std::min_element(samples.begin(), samples.end());
  result.p50_ns = ExactPercentile(samples, 0.50);
  result.p99_ns = ExactPercentile(samples, 0.99);
  return result;
}

struct ConfigResult {
  int dims;
  int64_t side;
  size_t batch_size;
  int reps;
  int64_t inserts;
  LatencyResult looped;
  LatencyResult batched;
};

ConfigResult RunConfig(int dims, int64_t side, size_t batch_size, int reps,
                       int64_t inserts) {
  ConfigResult result{dims, side, batch_size, reps, inserts, {}, {}};
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

  result.looped = MeasureLatency(batch_size, reps, [&] {
    for (const Mutation& m : batch) looped_cube.Add(m.cell, m.delta);
  });
  result.batched = MeasureLatency(batch_size, reps, [&] {
    batched_cube.ApplyBatch(batch);
  });
  return result;
}

int Run() {
  const bool smoke = SmokeMode();
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
                  TablePrinter::FormatDouble(r.looped.ups, 0),
                  TablePrinter::FormatDouble(r.batched.ups, 0),
                  TablePrinter::FormatDouble(r.batched.ups / r.looped.ups, 2),
                  TablePrinter::FormatDouble(
                      static_cast<double>(r.batched.p99_ns) / 1000.0, 1)});
  }
  table.Print();

  // Headline: the 2-D configuration's batched-over-looped speedup.
  double headline = 0;
  for (const ConfigResult& r : results) {
    if (r.dims == 2) headline = r.batched.ups / r.looped.ups;
  }
  std::printf("2-D batched vs looped update speedup: %.2fx\n\n", headline);

  const char* json_path = std::getenv("DDC_BENCH_JSON");
  if (json_path == nullptr || json_path[0] == '\0') {
    json_path = "BENCH_update_batch.json";
  }
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"update_batch\",\n"
               "  \"smoke\": %d,\n",
               smoke ? 1 : 0);
  WriteHostJson(out);
  std::fprintf(out,
               "  \"speedup_batched_vs_looped_2d\": %.3f,\n"
               "  \"configs\": [\n",
               headline);
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    // The speedup_batched_p* keys compare tail latencies (looped over
    // batched, so higher still means batching wins); the regression gate
    // applies its wider --p99-tolerance band to the p99 one.
    std::fprintf(
        out,
        "    {\"dims\": %d, \"side\": %lld, \"batch\": %zu, \"reps\": %d, "
        "\"inserts\": %lld, \"looped_ups\": %.1f, \"batched_ups\": %.1f, "
        "\"speedup_batched\": %.3f,\n"
        "     \"looped_p50_ns\": %lld, \"looped_p99_ns\": %lld, "
        "\"looped_min_ns\": %lld, \"batched_p50_ns\": %lld, "
        "\"batched_p99_ns\": %lld, \"batched_min_ns\": %lld,\n"
        "     \"speedup_batched_p50\": %.3f, \"speedup_batched_p99\": %.3f}"
        "%s\n",
        r.dims, static_cast<long long>(r.side), r.batch_size, r.reps,
        static_cast<long long>(r.inserts), r.looped.ups, r.batched.ups,
        r.batched.ups / r.looped.ups,
        static_cast<long long>(r.looped.p50_ns),
        static_cast<long long>(r.looped.p99_ns),
        static_cast<long long>(r.looped.min_ns),
        static_cast<long long>(r.batched.p50_ns),
        static_cast<long long>(r.batched.p99_ns),
        static_cast<long long>(r.batched.min_ns),
        static_cast<double>(r.looped.p50_ns) /
            static_cast<double>(r.batched.p50_ns),
        static_cast<double>(r.looped.p99_ns) /
            static_cast<double>(r.batched.p99_ns),
        i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

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
