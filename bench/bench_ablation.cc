// Ablation bench: design choices inside the Dynamic Data Cube.
//
//  A. B_c tree fanout: the fanout trades update depth (writes ~ log_f k per
//     face) against query width (reads ~ f log_f k per face) and storage.
//  B. 1-D row-sum store: the paper's B_c tree versus a Fenwick tree. Same
//     asymptotics; the Fenwick tree is denser (always k cells per face) but
//     has tighter constants on dense data, while the B_c tree is lazy and
//     wins on sparse cubes.
//
// Both ablations run the identical workload through full DynamicDataCube
// instances and report measured operation counts, wall time and storage.

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/op_counter.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

struct RunResult {
  double update_us;
  double query_us;
  int64_t update_writes;
  int64_t query_reads;
  int64_t storage;
};

RunResult RunWorkload(const DdcOptions& options, int64_t n, int64_t populate,
                      bool clustered) {
  DynamicDataCube cube(2, n, options);
  const Shape shape = Shape::Cube(2, n);
  WorkloadGenerator gen(shape, 7);
  ClusteredGenerator cluster_gen(shape, 4, 0.01, 7);

  std::vector<Cell> cells;
  for (int64_t i = 0; i < populate; ++i) {
    cells.push_back(clustered ? cluster_gen.NextCell() : gen.UniformCell());
  }

  const auto u0 = std::chrono::steady_clock::now();
  for (const Cell& c : cells) cube.Add(c, 1);
  const auto u1 = std::chrono::steady_clock::now();

  const int64_t update_writes =
      CountsOf([&] { cube.Add(UniformCell(2, 0), 1); }).values_written;

  const int kProbes = 200;
  WorkloadGenerator probes(shape, 11);
  const auto q0 = std::chrono::steady_clock::now();
  int64_t sink = 0;
  const int64_t query_reads = CountsOf([&] {
                                for (int i = 0; i < kProbes; ++i) {
                                  sink += cube.PrefixSum(probes.UniformCell());
                                }
                              }).values_read;
  const auto q1 = std::chrono::steady_clock::now();
  (void)sink;

  RunResult result;
  result.update_us =
      std::chrono::duration<double, std::micro>(u1 - u0).count() /
      static_cast<double>(populate);
  result.query_us =
      std::chrono::duration<double, std::micro>(q1 - q0).count() / kProbes;
  result.update_writes = update_writes;
  result.query_reads = query_reads / kProbes;
  result.storage = cube.StorageCells();
  return result;
}

void FanoutAblation() {
  std::printf("== Ablation A: B_c tree fanout (d=2, n=1024, 20k uniform "
              "inserts) ==\n");
  TablePrinter table({"fanout", "update us", "query us",
                      "writes/update (worst)", "reads/query (avg)",
                      "storage cells"});
  for (int fanout : {2, 4, 8, 16, 32, 64}) {
    DdcOptions options;
    options.bc_fanout = fanout;
    const RunResult r = RunWorkload(options, 1024, 20000, false);
    table.AddRow({TablePrinter::FormatInt(fanout),
                  TablePrinter::FormatDouble(r.update_us, 2),
                  TablePrinter::FormatDouble(r.query_us, 2),
                  TablePrinter::FormatInt(r.update_writes),
                  TablePrinter::FormatInt(r.query_reads),
                  TablePrinter::FormatInt(r.storage)});
  }
  table.Print();
  std::printf("\n");
}

void StoreAblation(bool clustered) {
  std::printf("== Ablation B: B_c tree vs Fenwick row-sum store (d=2, "
              "n=1024, %s inserts) ==\n",
              clustered ? "20k clustered" : "20k uniform");
  TablePrinter table({"store", "update us", "query us",
                      "writes/update (worst)", "reads/query (avg)",
                      "storage cells"});
  for (bool use_fenwick : {false, true}) {
    DdcOptions options;
    options.use_fenwick = use_fenwick;
    const RunResult r = RunWorkload(options, 1024, 20000, clustered);
    table.AddRow({use_fenwick ? "fenwick" : "bc_tree",
                  TablePrinter::FormatDouble(r.update_us, 2),
                  TablePrinter::FormatDouble(r.query_us, 2),
                  TablePrinter::FormatInt(r.update_writes),
                  TablePrinter::FormatInt(r.query_reads),
                  TablePrinter::FormatInt(r.storage)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::FanoutAblation();
  ddc::StoreAblation(/*clustered=*/false);
  ddc::StoreAblation(/*clustered=*/true);
  return 0;
}
