// E6 — Section 4.4: the space optimization that elides the h lowest tree
// levels above the leaves, trading bottom-of-descent query work (up to
// 2^((h+1)d) raw-cell reads) for storage "within epsilon of the size of
// array A".
//
// Part 1 reproduces the paper's worked example: in the Figure 11 tree
// (n = 8, d = 2), deleting one level saves 48 cells of storage, or 34%.
//
// Part 2 sweeps h on a dense 2-D cube and reports measured storage, query
// cost and update cost from the real Dynamic Data Cube, exposing the
// trade-off curve the paper describes qualitatively.

#include <cstdio>
#include <vector>

#include "common/bit_util.h"
#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

// Closed-form per-level storage of the full overlay tree (Basic DDC exact
// layout): level with box side k has (n/k)^d boxes of k^d - (k-1)^d cells.
int64_t LevelStorage(int64_t n, int d, int64_t k) {
  return IPow(n / k, d) * OverlayBoxStorageCells(k, d);
}

void PrintPaperExample() {
  std::printf("== Paper worked example (Section 4.4): n=8, d=2 ==\n");
  const int64_t n = 8;
  const int d = 2;
  int64_t full = 0;
  for (int64_t k = n / 2; k >= 1; k /= 2) full += LevelStorage(n, d, k);
  const int64_t level1 = LevelStorage(n, d, 2);  // The h=1 deleted level.
  std::printf("full tree storage: %lld cells; deleting tree level 1 "
              "(boxes of side 2) saves %lld cells = %.0f%%\n",
              static_cast<long long>(full), static_cast<long long>(level1),
              100.0 * static_cast<double>(level1) /
                  static_cast<double>(full));
  std::printf("(paper: \"Deleting the level saves 48 cells of storage, or "
              "34%%.\")\n\n");
}

void SweepElision(int64_t n, int dims, int64_t prepopulate) {
  std::printf("== Elision sweep: dense DDC, n=%lld, d=%d ==\n",
              static_cast<long long>(n), dims);
  TablePrinter table({"h", "min box side", "storage cells", "vs h=0",
                      "query reads (avg)", "update writes (worst)"});
  const Shape shape = Shape::Cube(dims, n);
  WorkloadGenerator seed_gen(shape, 17);
  const std::vector<UpdateOp> ops = seed_gen.UniformUpdates(prepopulate, 1, 9);

  int64_t h0_storage = 0;
  for (int h = 0; h <= 4; ++h) {
    DdcOptions options;
    options.elide_levels = h;
    DynamicDataCube cube(dims, n, options);
    for (const UpdateOp& op : ops) cube.Add(op.cell, op.delta);
    const int64_t storage = cube.StorageCells();
    if (h == 0) h0_storage = storage;

    WorkloadGenerator probe_gen(shape, 29);
    const int kProbes = 60;
    const int64_t reads = CountsOf([&] {
                            for (int i = 0; i < kProbes; ++i) {
                              cube.PrefixSum(probe_gen.UniformCell());
                            }
                          }).values_read;
    const double query_reads = static_cast<double>(reads) / kProbes;

    const int64_t update_writes =
        CountsOf([&] { cube.Add(UniformCell(dims, 0), 1); }).values_written;

    table.AddRow(
        {TablePrinter::FormatInt(h),
         TablePrinter::FormatInt(int64_t{1} << (h + 1)),
         TablePrinter::FormatInt(storage),
         TablePrinter::FormatDouble(
             static_cast<double>(storage) / static_cast<double>(h0_storage),
             3),
         TablePrinter::FormatDouble(query_reads, 1),
         TablePrinter::FormatInt(update_writes)});
  }
  table.Print();
  std::printf("array A alone: %lld cells\n\n",
              static_cast<long long>(IPow(n, dims)));
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::PrintPaperExample();
  ddc::SweepElision(256, 2, 20000);
  ddc::SweepElision(32, 3, 8000);
  return 0;
}
