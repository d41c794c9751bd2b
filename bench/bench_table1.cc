// E1 — Table 1 of the paper: "Update cost functions by method, d = 8.
// Values are rounded to the nearest power of 10."
//
// Part 1 regenerates the table exactly from the paper's cost functions:
//   Full Data Cube Size = n^d, Prefix Sum = n^d, Relative PS = n^(d/2),
//   Dynamic Data Cube = (log2 n)^d, for n = 10^1 .. 10^9.
//
// Part 2 validates the cost functions against *measured* operation counts
// from the real implementations at laptop-feasible sizes: worst-case
// (anchor) update touched-value counts for d = 2 and d = 3 sweeps and for
// d = 8 at small n. The paper's claims live or die on the shape: PS grows as
// n^d, RPS as n^(d/2), DDC stays polylogarithmic.
//
// Part 3 reproduces the headline wall-clock contrast from Section 1 ("the
// prefix sum method may require more than 6 months ... the DDC can update
// that same cell in under a second") at the largest size that fits in RAM:
// measured microseconds per worst-case update.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/table_printer.h"
#include "ddc/dynamic_data_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

void PrintAnalyticTable() {
  std::printf("== Table 1: update cost functions by method, d=8 ==\n");
  std::printf("   (values rounded to the nearest power of 10, as in the "
              "paper)\n");
  TablePrinter table({"n", "Full Data Cube Size =n^d", "Prefix Sum =n^d",
                      "Relative PS =n^(d/2)", "Dynamic Data Cube =(log2 n)^d"});
  const int d = 8;
  for (int exp = 1; exp <= 9; ++exp) {
    const double n = std::pow(10.0, exp);
    char n_label[16];
    std::snprintf(n_label, sizeof(n_label), "10^%d", exp);
    table.AddRow({n_label,
                  RoundToPowerOfTenString(FullCubeSizeCost(n, d)),
                  RoundToPowerOfTenString(PrefixSumUpdateCost(n, d)),
                  RoundToPowerOfTenString(RelativePrefixSumUpdateCost(n, d)),
                  RoundToPowerOfTenString(DynamicDataCubeUpdateCost(n, d))});
  }
  table.Print();
}

struct Measured {
  int64_t ps;
  int64_t rps;
  int64_t ddc;
};

Measured MeasureWorstCase(int dims, int64_t side) {
  const Cell anchor = UniformCell(dims, 0);
  Measured m{};
  {
    PrefixSumCube cube(Shape::Cube(dims, side));
    m.ps = CountsOf([&] { cube.Add(anchor, 1); }).values_written;
  }
  {
    RelativePrefixSumCube cube(Shape::Cube(dims, side));
    m.rps = CountsOf([&] { cube.Add(anchor, 1); }).values_written;
  }
  {
    DynamicDataCube cube(dims, side);
    m.ddc = CountsOf([&] { cube.Add(anchor, 1); }).values_written;
  }
  return m;
}

void PrintMeasuredValidation(int dims, const std::vector<int64_t>& sides) {
  std::printf("\n== Measured worst-case update cost (values written), d=%d ==\n",
              dims);
  TablePrinter table({"n", "PS measured", "PS model n^d", "RPS measured",
                      "RPS model n^(d/2)", "DDC measured",
                      "DDC model (log2 n)^d"});
  for (int64_t n : sides) {
    const Measured m = MeasureWorstCase(dims, n);
    const double dn = static_cast<double>(n);
    table.AddRow({TablePrinter::FormatInt(n), TablePrinter::FormatInt(m.ps),
                  TablePrinter::FormatDouble(PrefixSumUpdateCost(dn, dims), 0),
                  TablePrinter::FormatInt(m.rps),
                  TablePrinter::FormatDouble(
                      RelativePrefixSumUpdateCost(dn, dims), 0),
                  TablePrinter::FormatInt(m.ddc),
                  TablePrinter::FormatDouble(
                      DynamicDataCubeUpdateCost(dn, dims), 0)});
  }
  table.Print();
}

void PrintWallClockContrast() {
  std::printf("\n== Wall-clock contrast (Section 1 claim), d=2, n=1024 ==\n");
  const int64_t n = 1024;
  const int reps = 5;
  double ps_us = 0;
  double ddc_us = 0;
  {
    PrefixSumCube cube(Shape::Cube(2, n));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) cube.Add({0, 0}, 1);
    const auto end = std::chrono::steady_clock::now();
    ps_us = std::chrono::duration<double, std::micro>(end - start).count() /
            reps;
  }
  {
    DynamicDataCube cube(2, n);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) cube.Add({0, 0}, 1);
    const auto end = std::chrono::steady_clock::now();
    ddc_us = std::chrono::duration<double, std::micro>(end - start).count() /
             reps;
  }
  TablePrinter table({"method", "worst-case update (us)", "speedup vs PS"});
  table.AddRow({"prefix_sum", TablePrinter::FormatDouble(ps_us, 2), "1.0"});
  table.AddRow({"dynamic_data_cube", TablePrinter::FormatDouble(ddc_us, 2),
                TablePrinter::FormatDouble(ps_us / ddc_us, 1)});
  table.Print();
  std::printf("(the paper's 6-months-vs-seconds gap is this ratio "
              "extrapolated to n^d ~ 10^16 cells)\n");
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::PrintAnalyticTable();
  ddc::PrintMeasuredValidation(2, {16, 32, 64, 128, 256, 512, 1024});
  ddc::PrintMeasuredValidation(3, {8, 16, 32, 64});
  ddc::PrintMeasuredValidation(8, {2, 4});
  ddc::PrintWallClockContrast();
  return 0;
}
