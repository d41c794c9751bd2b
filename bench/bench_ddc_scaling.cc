// E5 — Section 4.3 (Theorems 1 and 2): the complete Dynamic Data Cube has
// query and update complexity O(log^d n).
//
// Measures touched-value counts and wall time for worst-case updates and
// random prefix queries, sweeping n for d = 1..4, and compares against the
// (log2 n)^d model. The diagnostic column "measured/model" must stay roughly
// flat as n grows (constants absorbed); the "growth" column must shrink
// toward 1 (polylog), in contrast to the multiplicative growth of every
// baseline in bench_table1.

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

void RunDimension(int dims, const std::vector<int64_t>& sides,
                  int64_t prepopulate) {
  std::printf("== DDC scaling, d=%d ==\n", dims);
  TablePrinter table({"n", "update writes", "query reads (avg)",
                      "model (log2 n)^d", "update us", "query us"});
  for (int64_t n : sides) {
    DynamicDataCube cube(dims, n);
    WorkloadGenerator gen(Shape::Cube(dims, n), static_cast<uint64_t>(n));
    for (const UpdateOp& op : gen.UniformUpdates(prepopulate, 1, 9)) {
      cube.Add(op.cell, op.delta);
    }

    // Worst-case update: the anchor.
    const auto u0 = std::chrono::steady_clock::now();
    const int64_t update_writes =
        CountsOf([&] { cube.Add(UniformCell(dims, 0), 1); }).values_written;
    const auto u1 = std::chrono::steady_clock::now();
    const double update_us =
        std::chrono::duration<double, std::micro>(u1 - u0).count();

    // Average query cost over random probes.
    const int kProbes = 50;
    const auto q0 = std::chrono::steady_clock::now();
    int64_t sink = 0;
    const int64_t reads = CountsOf([&] {
                            for (int i = 0; i < kProbes; ++i) {
                              sink += cube.PrefixSum(gen.UniformCell());
                            }
                          }).values_read;
    const auto q1 = std::chrono::steady_clock::now();
    (void)sink;
    const double query_reads = static_cast<double>(reads) / kProbes;
    const double query_us =
        std::chrono::duration<double, std::micro>(q1 - q0).count() / kProbes;

    table.AddRow({TablePrinter::FormatInt(n),
                  TablePrinter::FormatInt(update_writes),
                  TablePrinter::FormatDouble(query_reads, 1),
                  TablePrinter::FormatDouble(
                      DynamicDataCubeUpdateCost(static_cast<double>(n), dims),
                      1),
                  TablePrinter::FormatDouble(update_us, 2),
                  TablePrinter::FormatDouble(query_us, 2)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::RunDimension(1, {64, 256, 1024, 4096, 16384}, 500);
  ddc::RunDimension(2, {32, 64, 128, 256, 512, 1024}, 500);
  ddc::RunDimension(3, {8, 16, 32, 64}, 300);
  ddc::RunDimension(4, {4, 8, 16}, 200);
  return 0;
}
