// E4 — Section 3.2: the Basic Dynamic Data Cube's update-cost series
//
//   d*(n/2)^(d-1) + d*(n/4)^(d-1) + ... + d*1^(d-1)
//     = d * (n^(d-1) - 1) / (2^(d-1) - 1) = O(n^(d-1))
//
// Measured worst-case (anchor) update cost of the real Basic DDC versus the
// closed form, for d = 2 and d = 3. The exact-layout boxes write
// k^d - (k-1)^d values per level, which the paper upper-bounds by d*k^(d-1);
// the measured column must therefore sit between model/2 and model and grow
// with the same n^(d-1) slope.

#include <cstdio>
#include <vector>

#include "basic_ddc/basic_ddc.h"
#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/table_printer.h"
#include "common/workload.h"

namespace ddc {
namespace {

void RunSweep(int dims, const std::vector<int64_t>& sides) {
  std::printf("== Basic DDC worst-case update cost, d=%d ==\n", dims);
  TablePrinter table({"n", "measured writes", "model d(n^(d-1)-1)/(2^(d-1)-1)",
                      "measured/model", "growth vs prev n"});
  int64_t prev = 0;
  for (int64_t n : sides) {
    BasicDdc cube(dims, n);
    const int64_t measured =
        CountsOf([&] { cube.Add(UniformCell(dims, 0), 1); }).values_written;
    const double model = BasicDdcUpdateCost(static_cast<double>(n), dims);
    table.AddRow(
        {TablePrinter::FormatInt(n), TablePrinter::FormatInt(measured),
         TablePrinter::FormatDouble(model, 1),
         TablePrinter::FormatDouble(static_cast<double>(measured) / model, 3),
         prev == 0 ? "-"
                   : TablePrinter::FormatDouble(
                         static_cast<double>(measured) /
                             static_cast<double>(prev),
                         2)});
    prev = measured;
  }
  table.Print();
  std::printf("expected growth per doubling of n: %.1fx (= 2^(d-1))\n\n",
              static_cast<double>(int64_t{1} << (dims - 1)));
}

// Average update cost over random cells — the paper analyzes the worst
// case; the average is lower but shares the O(n^(d-1)) envelope.
void RunAverageSweep(int dims, const std::vector<int64_t>& sides) {
  std::printf("== Basic DDC average update cost over random cells, d=%d ==\n",
              dims);
  TablePrinter table({"n", "avg writes", "worst-case model"});
  for (int64_t n : sides) {
    BasicDdc cube(dims, n);
    WorkloadGenerator gen(Shape::Cube(dims, n), 3);
    const int kOps = 200;
    const int64_t written = CountsOf([&] {
                              for (int i = 0; i < kOps; ++i) {
                                cube.Add(gen.UniformCell(), 1);
                              }
                            }).values_written;
    table.AddRow(
        {TablePrinter::FormatInt(n),
         TablePrinter::FormatDouble(static_cast<double>(written) / kOps, 1),
         TablePrinter::FormatDouble(
             BasicDdcUpdateCost(static_cast<double>(n), dims), 1)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::RunSweep(2, {8, 16, 32, 64, 128, 256, 512});
  ddc::RunSweep(3, {4, 8, 16, 32, 64});
  ddc::RunAverageSweep(2, {64, 256});
  return 0;
}
