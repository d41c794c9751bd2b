// Range-update benchmark: the perf side of the first-class range mutation
// PR. For each dimensionality we add a constant to every cell of the same
// hyper-rectangle two ways —
//   looped : a loop of point Add calls, one per covered cell (the only
//            option before range mutations existed): Theta(|box| log^d n),
//   range  : DynamicDataCube::RangeAdd (the 2^d signed-corner overlay of
//            DESIGN.md §12): O(4^d log^d n), independent of |box|.
// The win is the whole point of the feature: a region-wide adjustment costs
// a fixed number of corner descents instead of one descent per covered
// cell, so the speedup scales with the box volume.
//
// The layer gate for the overlay's read side: RangeSumBatch latency for one
// box with 0, Crossover - 1 (all pending in the journal) and 2 x Crossover
// (trees built, Crossover pending) live range-adds, at 2-D side 1024 and
// 3-D side 64; plus range-add latency below the crossover (journal append)
// and past it (append + one fold), to show that no range-add stalls.
//
// Writes BENCH_range_update.json (override the path with DDC_BENCH_JSON).
// Setting DDC_BENCH_SMOKE shrinks boxes and rep counts so the whole run
// finishes in well under a second — used by the `bench_smoke` ctest
// regression gate. In smoke mode the binary also enforces the acceptance
// floor itself: it exits nonzero unless the 2-D side-1024 configuration
// shows range-add >= 10x the point loop.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_host.h"
#include "common/range.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

bool SmokeMode() {
  const char* env = std::getenv("DDC_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
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
  double cells_per_sec = 0;  // Covered cells written per second.
  int64_t p50_ns = 0;        // Per-operation wall latency percentiles (the
  int64_t p99_ns = 0;        // whole box counts as one operation), computed
  int64_t min_ns = 0;        // exactly from the per-rep samples.
};

template <typename Fn>
LatencyResult MeasureLatency(int64_t cells_per_rep, int reps, const Fn& fn) {
  fn();  // Warm-up: materializes every node/corner the op will ever touch.
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
  result.cells_per_sec = static_cast<double>(reps) *
                         static_cast<double>(cells_per_rep) /
                         (static_cast<double>(total_ns) * 1e-9);
  result.min_ns = *std::min_element(samples.begin(), samples.end());
  result.p50_ns = ExactPercentile(samples, 0.50);
  result.p99_ns = ExactPercentile(samples, 0.99);
  return result;
}

// Read-side rows: one cube receives range-adds in three stages; reads are
// timed after each stage, writes during the last two.
struct ReadRow {
  int64_t live_range_adds = 0;
  int64_t overlay_trees = 0;  // From PlanRangeSumBatch: 0 until the fold.
  int64_t journal_boxes = 0;  // Pending entries each corner scans.
  LatencyResult read;
};

struct OverlayResult {
  int dims;
  int64_t side;
  int64_t crossover;
  std::vector<ReadRow> rows;
  LatencyResult journal_write;  // Range-adds that only append.
  LatencyResult fold_write;     // Range-adds that append and fold one.
};

// Exact percentiles of per-op samples (the cells_per_sec field is unused).
LatencyResult Summarize(std::vector<int64_t> samples) {
  LatencyResult result;
  if (samples.empty()) return result;
  result.min_ns = *std::min_element(samples.begin(), samples.end());
  result.p50_ns = ExactPercentile(samples, 0.50);
  result.p99_ns = ExactPercentile(samples, 0.99);
  return result;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

OverlayResult RunOverlayConfig(int dims, int64_t side, int64_t inserts,
                               int read_reps) {
  OverlayResult result;
  result.dims = dims;
  result.side = side;
  result.crossover = DynamicDataCube::Crossover(dims, side);
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 211);
  DynamicDataCube cube(dims, side);
  for (int64_t i = 0; i < inserts; ++i) {
    cube.Add(gen.UniformCell(), gen.Value(-9, 9));
  }
  // Boxes stay inside the seed domain (no re-roots) with sides up to a
  // fifth of the domain, like the ranges of an ingest-side adjustment.
  const auto random_box = [&] {
    Box box{gen.UniformCell(), Cell(static_cast<size_t>(dims))};
    for (int i = 0; i < dims; ++i) {
      const size_t ui = static_cast<size_t>(i);
      box.hi[ui] = std::min<Coord>(side - 1,
                                   box.lo[ui] + gen.Value(0, side / 5));
    }
    return box;
  };
  const auto measure_reads = [&](int64_t live_range_adds) {
    ReadRow row;
    row.live_range_adds = live_range_adds;
    const Box first = random_box();
    const DynamicDataCube::RangeSumPlan plan =
        cube.PlanRangeSumBatch(std::span<const Box>(&first, 1));
    row.overlay_trees = plan.overlay_trees;
    row.journal_boxes = plan.overlay_journal_boxes;
    std::vector<int64_t> samples;
    samples.reserve(static_cast<size_t>(read_reps));
    for (int r = 0; r <= read_reps; ++r) {
      const Box box = r == 0 ? first : random_box();
      int64_t out = 0;
      const int64_t start = NowNs();
      cube.RangeSumBatch(std::span<const Box>(&box, 1),
                         std::span<int64_t>(&out, 1));
      const int64_t end = NowNs();
      if (r > 0) samples.push_back(end - start);  // r == 0 warms up.
    }
    row.read = Summarize(std::move(samples));
    return row;
  };
  const auto add_until = [&](int64_t total, std::vector<int64_t>* journal,
                             std::vector<int64_t>* fold) {
    for (int64_t n = static_cast<int64_t>(journal->size() + fold->size());
         n < total; ++n) {
      const Box box = random_box();
      const int64_t delta = gen.Value(1, 9);
      const int64_t pending = cube.PendingRangeAdds();
      const int64_t start = NowNs();
      cube.RangeAdd(box, delta);
      const int64_t end = NowNs();
      (pending == result.crossover ? fold : journal)->push_back(end - start);
    }
  };

  std::vector<int64_t> journal_writes;
  std::vector<int64_t> fold_writes;
  for (const int64_t live :
       {int64_t{0}, result.crossover - 1, 2 * result.crossover}) {
    add_until(live, &journal_writes, &fold_writes);
    result.rows.push_back(measure_reads(live));
  }
  result.journal_write = Summarize(std::move(journal_writes));
  result.fold_write = Summarize(std::move(fold_writes));
  return result;
}

struct ConfigResult {
  int dims;
  int64_t side;
  int64_t box_side;
  int64_t box_cells;
  int looped_reps;
  int range_reps;
  LatencyResult looped;
  LatencyResult range;
};

ConfigResult RunConfig(int dims, int64_t side, int64_t box_side,
                       int looped_reps, int range_reps, int64_t inserts) {
  ConfigResult result;
  result.dims = dims;
  result.side = side;
  result.box_side = box_side;
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 97);

  // Two cubes with identical sparse pre-population (so descents meet real
  // tree structure, not a single lazily-materialized path). Every op stays
  // inside the seed domain: values accumulate, geometry never changes, so
  // no re-roots perturb the timing.
  DynamicDataCube looped_cube(dims, side);
  DynamicDataCube range_cube(dims, side);
  for (int64_t i = 0; i < inserts; ++i) {
    const Cell cell = gen.UniformCell();
    const int64_t delta = gen.Value(-9, 9);
    looped_cube.Add(cell, delta);
    range_cube.Add(cell, delta);
  }

  // The box: anchored off-origin so corner coordinates are non-trivial.
  Box box{UniformCell(dims, side / 4), UniformCell(dims, side / 4)};
  for (int i = 0; i < dims; ++i) {
    box.hi[static_cast<size_t>(i)] += box_side - 1;
  }
  result.box_cells = box.NumCells();

  result.looped = MeasureLatency(result.box_cells, looped_reps, [&] {
    ForEachCellInBox(box, [&](const Cell& cell) { looped_cube.Add(cell, 1); });
  });
  result.range = MeasureLatency(result.box_cells, range_reps,
                                [&] { range_cube.RangeAdd(box, 1); });
  result.looped_reps = looped_reps;
  result.range_reps = range_reps;
  return result;
}

int Run() {
  const bool smoke = SmokeMode();
  struct Geometry {
    int dims;
    int64_t side;
    int64_t box_side;
    int looped_reps;
    int range_reps;
    int64_t inserts;
  };
  // The 2-D side-1024 entry is the headline (and, in smoke mode, the gated
  // >= 10x floor). The 2-D side stays 1024 even in smoke — the floor is
  // specified at that geometry — while the box and rep counts shrink.
  // Looped reps are few (each rep is |box| full descents); range reps are
  // many (each rep is 2^d * 2^d corner updates) so its nearest-rank p99 is
  // a real percentile rather than the max of a handful.
  const std::vector<Geometry> geometries =
      smoke ? std::vector<Geometry>{{1, 4096, 1024, 8, 150, 1000},
                                    {2, 1024, 96, 8, 150, 1000},
                                    {3, 32, 12, 8, 150, 500}}
            : std::vector<Geometry>{{1, 65536, 16384, 10, 300, 20000},
                                    {2, 1024, 256, 10, 300, 20000},
                                    {3, 64, 24, 10, 300, 10000}};

  std::printf("== Range-add vs per-cell point loop (covered cells/sec)%s ==\n",
              smoke ? " [smoke]" : "");

  std::vector<ConfigResult> results;
  TablePrinter table({"dims", "side", "box", "cells", "looped c/s",
                      "range c/s", "range/looped", "range p99 us"});
  for (const Geometry& g : geometries) {
    const ConfigResult r = RunConfig(g.dims, g.side, g.box_side,
                                     g.looped_reps, g.range_reps, g.inserts);
    results.push_back(r);
    table.AddRow(
        {std::to_string(r.dims), std::to_string(r.side),
         std::to_string(r.box_side), std::to_string(r.box_cells),
         TablePrinter::FormatDouble(r.looped.cells_per_sec, 0),
         TablePrinter::FormatDouble(r.range.cells_per_sec, 0),
         TablePrinter::FormatDouble(
             r.range.cells_per_sec / r.looped.cells_per_sec, 1),
         TablePrinter::FormatDouble(
             static_cast<double>(r.range.p99_ns) / 1000.0, 1)});
  }
  table.Print();

  // Overlay read side and fold cost.
  struct OverlayGeometry {
    int dims;
    int64_t side;
    int64_t inserts;
    int read_reps;
  };
  const std::vector<OverlayGeometry> overlay_geometries =
      smoke ? std::vector<OverlayGeometry>{{2, 1024, 1000, 200},
                                           {3, 64, 2000, 200}}
            : std::vector<OverlayGeometry>{{2, 1024, 20000, 1000},
                                           {3, 64, 10000, 1000}};
  std::printf("== Overlay reads by live range-adds (RangeSumBatch, one "
              "box) ==\n");
  std::vector<OverlayResult> overlays;
  TablePrinter read_table({"dims", "side", "crossover", "live adds",
                           "trees", "journal", "read p50 us",
                           "read p99 us"});
  TablePrinter write_table({"dims", "side", "write", "ops", "p50 us",
                            "p99 us"});
  for (const OverlayGeometry& g : overlay_geometries) {
    overlays.push_back(
        RunOverlayConfig(g.dims, g.side, g.inserts, g.read_reps));
    const OverlayResult& o = overlays.back();
    for (const ReadRow& row : o.rows) {
      read_table.AddRow(
          {std::to_string(o.dims), std::to_string(o.side),
           std::to_string(o.crossover), std::to_string(row.live_range_adds),
           std::to_string(row.overlay_trees),
           std::to_string(row.journal_boxes),
           TablePrinter::FormatDouble(
               static_cast<double>(row.read.p50_ns) / 1000.0, 2),
           TablePrinter::FormatDouble(
               static_cast<double>(row.read.p99_ns) / 1000.0, 2)});
    }
    const auto write_row = [&](const char* kind, const LatencyResult& w,
                               int64_t ops) {
      write_table.AddRow(
          {std::to_string(o.dims), std::to_string(o.side), kind,
           std::to_string(ops),
           TablePrinter::FormatDouble(static_cast<double>(w.p50_ns) / 1000.0,
                                      2),
           TablePrinter::FormatDouble(static_cast<double>(w.p99_ns) / 1000.0,
                                      2)});
    };
    write_row("append", o.journal_write, o.crossover);
    write_row("append+fold", o.fold_write, o.crossover);
  }
  read_table.Print();
  write_table.Print();

  // Headline: the 2-D configuration's range-over-looped speedup.
  double headline = 0;
  for (const ConfigResult& r : results) {
    if (r.dims == 2) headline = r.range.cells_per_sec / r.looped.cells_per_sec;
  }
  std::printf("2-D range-add vs point-loop speedup: %.1fx\n\n", headline);

  const char* json_path = std::getenv("DDC_BENCH_JSON");
  if (json_path == nullptr || json_path[0] == '\0') {
    json_path = "BENCH_range_update.json";
  }
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"range_update\",\n"
               "  \"smoke\": %d,\n",
               smoke ? 1 : 0);
  WriteHostJson(out);
  std::fprintf(out,
               "  \"speedup_range_vs_loop_2d\": %.3f,\n"
               "  \"configs\": [\n",
               headline);
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    // speedup_range_p50/p99 compare per-op latencies (looped over range, so
    // higher still means the range path wins); the regression gate applies
    // its wider --p99-tolerance band to the p99 one.
    std::fprintf(
        out,
        "    {\"dims\": %d, \"side\": %lld, \"box_side\": %lld, "
        "\"box_cells\": %lld, \"looped_reps\": %d, \"range_reps\": %d,\n"
        "     \"looped_cells_per_sec\": %.1f, \"range_cells_per_sec\": %.1f, "
        "\"speedup_range\": %.3f,\n"
        "     \"looped_p50_ns\": %lld, \"looped_p99_ns\": %lld, "
        "\"looped_min_ns\": %lld, \"range_p50_ns\": %lld, "
        "\"range_p99_ns\": %lld, \"range_min_ns\": %lld,\n"
        "     \"speedup_range_p50\": %.3f, \"speedup_range_p99\": %.3f}%s\n",
        r.dims, static_cast<long long>(r.side),
        static_cast<long long>(r.box_side),
        static_cast<long long>(r.box_cells), r.looped_reps, r.range_reps,
        r.looped.cells_per_sec, r.range.cells_per_sec,
        r.range.cells_per_sec / r.looped.cells_per_sec,
        static_cast<long long>(r.looped.p50_ns),
        static_cast<long long>(r.looped.p99_ns),
        static_cast<long long>(r.looped.min_ns),
        static_cast<long long>(r.range.p50_ns),
        static_cast<long long>(r.range.p99_ns),
        static_cast<long long>(r.range.min_ns),
        static_cast<double>(r.looped.p50_ns) /
            static_cast<double>(r.range.p50_ns),
        static_cast<double>(r.looped.p99_ns) /
            static_cast<double>(r.range.p99_ns),
        i + 1 == results.size() ? "" : ",");
  }
  // ratio_read_* compare the read p50 with no range-add against the journal
  // regime (Crossover - 1 pending) and the folded regime (2 x Crossover
  // applied); higher is better, so the regression gate catches an overlay
  // read path that slows down relative to the bare cube.
  std::fprintf(out, "  ],\n  \"overlay\": [\n");
  for (size_t i = 0; i < overlays.size(); ++i) {
    const OverlayResult& o = overlays[i];
    std::fprintf(out,
                 "    {\"dims\": %d, \"side\": %lld, \"crossover\": %lld,\n"
                 "     \"reads\": [\n",
                 o.dims, static_cast<long long>(o.side),
                 static_cast<long long>(o.crossover));
    for (size_t r = 0; r < o.rows.size(); ++r) {
      const ReadRow& row = o.rows[r];
      std::fprintf(out,
                   "       {\"live_range_adds\": %lld, \"overlay_trees\": "
                   "%lld, \"journal_boxes\": %lld, \"read_p50_ns\": %lld, "
                   "\"read_p99_ns\": %lld}%s\n",
                   static_cast<long long>(row.live_range_adds),
                   static_cast<long long>(row.overlay_trees),
                   static_cast<long long>(row.journal_boxes),
                   static_cast<long long>(row.read.p50_ns),
                   static_cast<long long>(row.read.p99_ns),
                   r + 1 == o.rows.size() ? "" : ",");
    }
    const double bare = static_cast<double>(o.rows[0].read.p50_ns);
    std::fprintf(
        out,
        "     ],\n"
        "     \"ratio_read_journal\": %.3f, \"ratio_read_folded\": %.3f,\n"
        "     \"journal_write_p50_ns\": %lld, \"journal_write_p99_ns\": %lld, "
        "\"fold_write_p50_ns\": %lld, \"fold_write_p99_ns\": %lld}%s\n",
        bare / static_cast<double>(o.rows[1].read.p50_ns),
        bare / static_cast<double>(o.rows[2].read.p50_ns),
        static_cast<long long>(o.journal_write.p50_ns),
        static_cast<long long>(o.journal_write.p99_ns),
        static_cast<long long>(o.fold_write.p50_ns),
        static_cast<long long>(o.fold_write.p99_ns),
        i + 1 == overlays.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  // Acceptance floor, enforced where the regression gate can see it.
  if (smoke && headline < 10.0) {
    std::fprintf(stderr,
                 "FAIL: 2-D side-1024 range-add/point-loop speedup %.1fx is "
                 "below the 10x floor\n",
                 headline);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ddc

int main() { return ddc::Run(); }
