// E7 — Section 5: dynamic growth in any direction and clustered/sparse
// data.
//
// Scenario (the paper's astronomy example): discoveries stream in from
// point-source clusters scattered around — and far outside — the initial
// domain. The Dynamic Data Cube grows toward the data and stores only
// populated regions; the prefix-sum family must pre-materialize (and on
// growth, recompute) the full bounding box, as in Figure 16 where adding one
// cell forces the creation and recomputation of the entire shaded region.
//
// Reported: storage, growth events, per-insert cost for the DDC, versus the
// bounding-box cells the PS/RPS methods would have to materialize and the
// cascade cost PS would pay per insert.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bit_util.h"
#include "common/op_counter.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "prefix/prefix_sum_cube.h"

namespace ddc {
namespace {

// Streams clustered inserts whose centers range over a widening area, then
// reports how each method's footprint scales with the *bounding box* versus
// the *data*.
void RunClusteredGrowth() {
  std::printf("== Clustered growth: 2-D star catalog, inserts streamed ==\n");
  TablePrinter table({"inserts", "bbox side", "bbox cells (PS storage)",
                      "DDC storage", "DDC/bbox", "DDC doublings"});

  DynamicDataCube cube(2, 16);
  std::mt19937_64 rng(5);
  std::normal_distribution<double> noise(0.0, 12.0);
  std::uniform_int_distribution<Coord> center_coord(-20000, 20000);

  Coord lo = 0, hi = 15;
  int64_t inserts = 0;
  std::vector<Cell> centers;
  for (int wave = 0; wave < 6; ++wave) {
    // Each wave discovers two new clusters anywhere (any direction).
    for (int c = 0; c < 2; ++c) {
      centers.push_back({center_coord(rng), center_coord(rng)});
    }
    for (int i = 0; i < 400; ++i) {
      const Cell& center = centers[static_cast<size_t>(
          std::uniform_int_distribution<size_t>(0, centers.size() - 1)(rng))];
      Cell cell{center[0] + static_cast<Coord>(noise(rng)),
                center[1] + static_cast<Coord>(noise(rng))};
      cube.Add(cell, 1);
      lo = std::min({lo, cell[0], cell[1]});
      hi = std::max({hi, cell[0], cell[1]});
      ++inserts;
    }
    const int64_t bbox_side = CeilPowerOfTwo(hi - lo + 1);
    const int64_t bbox_cells = bbox_side * bbox_side;
    table.AddRow(
        {TablePrinter::FormatInt(inserts), TablePrinter::FormatInt(bbox_side),
         TablePrinter::FormatInt(bbox_cells),
         TablePrinter::FormatInt(cube.StorageCells()),
         TablePrinter::FormatDouble(static_cast<double>(cube.StorageCells()) /
                                        static_cast<double>(bbox_cells),
                                    6),
         TablePrinter::FormatInt(cube.growth_doublings())});
  }
  table.Print();
  std::printf("total stars: %lld (TotalSum check: %lld)\n\n",
              static_cast<long long>(inserts),
              static_cast<long long>(cube.TotalSum()));
}

// Per-insert cost comparison on a domain that PS can still materialize:
// clustered inserts into a 1024^2 space. PS pays the Figure 5 cascade and
// n^d storage up front; the DDC pays polylog work and sparse storage.
void RunSparseCostComparison() {
  std::printf("== Sparse clustered inserts, fixed 1024^2 domain ==\n");
  const int64_t n = 1024;
  const int kInserts = 800;
  ClusteredGenerator gen(Shape::Cube(2, n), 5, 0.01, 11);
  std::vector<Cell> cells;
  for (int i = 0; i < kInserts; ++i) cells.push_back(gen.NextCell());

  PrefixSumCube ps(Shape::Cube(2, n));
  const int64_t ps_writes =
      CountsOf([&] {
        for (const Cell& c : cells) ps.Add(c, 1);
      }).values_written;

  DynamicDataCube ddc_cube(2, n);
  const int64_t ddc_writes =
      CountsOf([&] {
        for (const Cell& c : cells) ddc_cube.Add(c, 1);
      }).values_written;

  TablePrinter table({"method", "storage cells", "writes/insert (avg)"});
  table.AddRow({"prefix_sum", TablePrinter::FormatInt(ps.StorageCells()),
                TablePrinter::FormatDouble(
                    static_cast<double>(ps_writes) / kInserts, 1)});
  table.AddRow({"dynamic_data_cube",
                TablePrinter::FormatInt(ddc_cube.StorageCells()),
                TablePrinter::FormatDouble(
                    static_cast<double>(ddc_writes) / kInserts, 1)});
  table.Print();

  // Queries agree, of course — spot-check a few cluster boxes.
  WorkloadGenerator probes(Shape::Cube(2, n), 3);
  for (int i = 0; i < 20; ++i) {
    const Box box = probes.UniformBox();
    if (ps.RangeSum(box) != ddc_cube.RangeSum(box)) {
      std::printf("MISMATCH at %s\n", box.ToString().c_str());
      return;
    }
  }
  std::printf("query agreement: OK (20 random boxes)\n");
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::RunClusteredGrowth();
  ddc::RunSparseCostComparison();
  return 0;
}
