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
// The two ways are timed interleaved (bench/harness.h). Writes
// BENCH_range_update.json (override the path with DDC_BENCH_JSON). Setting
// DDC_BENCH_SMOKE shrinks boxes and rep counts for the `bench_smoke` ctest
// regression gate. In smoke mode the binary also enforces the acceptance
// floor itself: it exits nonzero unless the 2-D side-1024 configuration
// shows range-add >= 10x the point loop.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/range.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "harness.h"

namespace ddc {
namespace {

// Read-side rows: one cube receives range-adds in three stages; reads are
// timed after each stage, writes during the last two.
struct ReadRow {
  int64_t live_range_adds = 0;
  int64_t overlay_trees = 0;  // From PlanRangeSumBatch: 0 until the fold.
  int64_t journal_boxes = 0;  // Pending entries each corner scans.
  bench::Summary read;
};

struct OverlayResult {
  int dims;
  int64_t side;
  int64_t crossover;
  std::vector<ReadRow> rows;
  bench::Summary journal_write;  // Range-adds that only append.
  bench::Summary fold_write;     // Range-adds that append and fold one.
};

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
    Box box;  // A fresh one for every read, drawn untimed.
    row.read = bench::Interleave({{read_reps,
                                   [&] {
                                     int64_t out = 0;
                                     cube.RangeSumBatch(
                                         std::span<const Box>(&box, 1),
                                         std::span<int64_t>(&out, 1));
                                     bench::Keep(out);
                                   },
                                   [&] { box = random_box(); }}})[0];
    return row;
  };
  const auto add_until = [&](int64_t total, std::vector<int64_t>* journal,
                             std::vector<int64_t>* fold) {
    for (int64_t n = static_cast<int64_t>(journal->size() + fold->size());
         n < total; ++n) {
      const Box box = random_box();
      const int64_t delta = gen.Value(1, 9);
      const int64_t pending = cube.PendingRangeAdds();
      const int64_t start = bench::NowNs();
      cube.RangeAdd(box, delta);
      const int64_t end = bench::NowNs();
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
  result.journal_write = bench::Summarize(std::move(journal_writes));
  result.fold_write = bench::Summarize(std::move(fold_writes));
  return result;
}

struct ConfigResult {
  int dims;
  int64_t side;
  int64_t box_side;
  int64_t box_cells;
  bench::Summary looped;
  bench::Summary range;
  double looped_cells_per_sec() const { return looped.PerSec(box_cells); }
  double range_cells_per_sec() const { return range.PerSec(box_cells); }
};

ConfigResult RunConfig(int dims, int64_t side, int64_t box_side,
                       int looped_reps, int range_reps, int64_t inserts) {
  ConfigResult result;
  result.dims = dims;
  result.side = side;
  result.box_side = box_side;
  // Cubes with identical sparse pre-population (so descents meet real tree
  // structure, not a single lazily-materialized path). Every op stays
  // inside the seed domain: values accumulate, geometry never changes, so
  // no re-roots perturb the timing.
  const auto populated = [&] {
    auto cube = std::make_unique<DynamicDataCube>(dims, side);
    WorkloadGenerator gen(Shape::Cube(dims, side), 97);
    for (int64_t i = 0; i < inserts; ++i) {
      const Cell cell = gen.UniformCell();
      cube->Add(cell, gen.Value(-9, 9));
    }
    return cube;
  };
  const std::unique_ptr<DynamicDataCube> looped_cube = populated();
  std::unique_ptr<DynamicDataCube> range_cube;

  // The box: anchored off-origin so corner coordinates are non-trivial.
  Box box{UniformCell(dims, side / 4), UniformCell(dims, side / 4)};
  for (int i = 0; i < dims; ++i) {
    box.hi[static_cast<size_t>(i)] += box_side - 1;
  }
  result.box_cells = box.NumCells();

  // Range-adds pile up in the journal and fold past the crossover, so the
  // range side starts over on a fresh cube every range_reps runs: a
  // topped-up smoke phase then sees the same journal depths and share of
  // folds as the requested reps.
  int range_runs = 0;
  const std::vector<bench::Summary> timed = bench::Interleave(
      {{looped_reps,
        [&] {
          ForEachCellInBox(
              box, [&](const Cell& cell) { looped_cube->Add(cell, 1); });
        }},
       {range_reps, [&] { range_cube->RangeAdd(box, 1); },
        [&] {
          if (range_runs++ % (range_reps + 1) == 0) range_cube = populated();
        }}});
  result.looped = timed[0];
  result.range = timed[1];
  return result;
}

int Run() {
  const bool smoke = bench::Smoke();
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
         TablePrinter::FormatDouble(r.looped_cells_per_sec(), 0),
         TablePrinter::FormatDouble(r.range_cells_per_sec(), 0),
         TablePrinter::FormatDouble(
             r.range_cells_per_sec() / r.looped_cells_per_sec(), 1),
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
    const auto write_row = [&](const char* kind, const bench::Summary& w,
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
    if (r.dims == 2) {
      headline = r.range_cells_per_sec() / r.looped_cells_per_sec();
    }
  }
  std::printf("2-D range-add vs point-loop speedup: %.1fx\n\n", headline);

  bench::Json json("range_update");
  json.Num("speedup_range_vs_loop_2d", headline).Array("configs");
  for (const ConfigResult& r : results) {
    // speedup_range_p50/p99 compare per-op latencies (looped over range, so
    // higher still means the range path wins); the regression gate applies
    // its wider --p99-tolerance band to the p99 one.
    json.Object()
        .Int("dims", r.dims)
        .Int("side", r.side)
        .Int("box_side", r.box_side)
        .Int("box_cells", r.box_cells)
        .Int("looped_reps", r.looped.reps())
        .Int("range_reps", r.range.reps())
        .Num("looped_cells_per_sec", r.looped_cells_per_sec(), 1)
        .Num("range_cells_per_sec", r.range_cells_per_sec(), 1)
        .Num("speedup_range",
             r.range_cells_per_sec() / r.looped_cells_per_sec())
        .Int("looped_p50_ns", r.looped.p50_ns)
        .Int("looped_p99_ns", r.looped.p99_ns)
        .Int("looped_min_ns", r.looped.min_ns)
        .Int("range_p50_ns", r.range.p50_ns)
        .Int("range_p99_ns", r.range.p99_ns)
        .Int("range_min_ns", r.range.min_ns)
        .Num("speedup_range_p50", bench::Ratio(r.looped.p50_ns, r.range.p50_ns))
        .Num("speedup_range_p99", bench::Ratio(r.looped.p99_ns, r.range.p99_ns))
        .End();
  }
  // ratio_read_* compare the read p50 with no range-add against the journal
  // regime (Crossover - 1 pending) and the folded regime (2 x Crossover
  // applied); higher is better, so the regression gate catches an overlay
  // read path that slows down relative to the bare cube.
  json.End().Array("overlay");
  for (const OverlayResult& o : overlays) {
    json.Object()
        .Int("dims", o.dims)
        .Int("side", o.side)
        .Int("crossover", o.crossover)
        .Array("reads");
    for (const ReadRow& row : o.rows) {
      json.Object()
          .Int("live_range_adds", row.live_range_adds)
          .Int("overlay_trees", row.overlay_trees)
          .Int("journal_boxes", row.journal_boxes)
          .Int("read_p50_ns", row.read.p50_ns)
          .Int("read_p99_ns", row.read.p99_ns)
          .End();
    }
    const int64_t bare = o.rows[0].read.p50_ns;
    json.End()
        .Num("ratio_read_journal", bench::Ratio(bare, o.rows[1].read.p50_ns))
        .Num("ratio_read_folded", bench::Ratio(bare, o.rows[2].read.p50_ns))
        .Int("journal_write_p50_ns", o.journal_write.p50_ns)
        .Int("journal_write_p99_ns", o.journal_write.p99_ns)
        .Int("fold_write_p50_ns", o.fold_write.p50_ns)
        .Int("fold_write_p99_ns", o.fold_write.p99_ns)
        .End();
  }
  if (!json.Write()) return 1;

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
