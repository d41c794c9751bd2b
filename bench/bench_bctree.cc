// E9 — the B_c tree (Section 4.1): O(log k) cumulative queries and updates
// across fanouts, with the Fenwick tree as the ablation comparator.
//
// Uses google-benchmark for the wall-clock micro-measurements, then prints
// an operation-count table showing the log_f(k) shape and the lazy-storage
// advantage of the B_c tree on sparse contents.

#include <cstdio>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "bctree/bc_tree.h"
#include "bctree/fenwick_tree.h"
#include "common/op_counter.h"
#include "common/table_printer.h"

namespace ddc {
namespace {

void BM_BcTreeAdd(benchmark::State& state) {
  const int64_t capacity = state.range(0);
  const int fanout = static_cast<int>(state.range(1));
  BcTree tree(capacity, fanout);
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int64_t> index(0, capacity - 1);
  for (auto _ : state) {
    tree.Add(index(rng), 1);
  }
  state.SetLabel("capacity=" + std::to_string(capacity) +
                 " fanout=" + std::to_string(fanout));
}
BENCHMARK(BM_BcTreeAdd)
    ->Args({1 << 10, 2})
    ->Args({1 << 10, 8})
    ->Args({1 << 10, 32})
    ->Args({1 << 16, 2})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 32})
    ->Args({1 << 20, 8});

void BM_BcTreeCumulativeSum(benchmark::State& state) {
  const int64_t capacity = state.range(0);
  const int fanout = static_cast<int>(state.range(1));
  BcTree tree(capacity, fanout);
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int64_t> index(0, capacity - 1);
  for (int64_t i = 0; i < capacity; i += 3) tree.Add(i, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CumulativeSum(index(rng)));
  }
}
BENCHMARK(BM_BcTreeCumulativeSum)
    ->Args({1 << 10, 2})
    ->Args({1 << 10, 8})
    ->Args({1 << 10, 32})
    ->Args({1 << 16, 8})
    ->Args({1 << 20, 8});

void BM_FenwickAdd(benchmark::State& state) {
  const int64_t capacity = state.range(0);
  FenwickTree tree(capacity);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int64_t> index(0, capacity - 1);
  for (auto _ : state) {
    tree.Add(index(rng), 1);
  }
}
BENCHMARK(BM_FenwickAdd)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_FenwickCumulativeSum(benchmark::State& state) {
  const int64_t capacity = state.range(0);
  FenwickTree tree(capacity);
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<int64_t> index(0, capacity - 1);
  for (int64_t i = 0; i < capacity; i += 3) tree.Add(i, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CumulativeSum(index(rng)));
  }
}
BENCHMARK(BM_FenwickCumulativeSum)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void PrintOperationCountTable() {
  std::printf("\n== B_c tree operation counts (log_f k shape) ==\n");
  TablePrinter table({"capacity k", "fanout f", "height", "writes/update",
                      "reads/query (avg)", "storage (dense)",
                      "storage (1%% filled)"});
  std::mt19937_64 rng(7);
  for (int64_t capacity : {int64_t{1} << 10, int64_t{1} << 16}) {
    for (int fanout : {2, 4, 8, 32}) {
      BcTree dense(capacity, fanout);
      for (int64_t i = 0; i < capacity; ++i) dense.Add(i, 1);

      const int64_t writes =
          CountsOf([&] { dense.Add(capacity / 2, 1); }).values_written;

      std::uniform_int_distribution<int64_t> index(0, capacity - 1);
      const int kProbes = 200;
      const OpCounters probes = CountsOf([&] {
        for (int i = 0; i < kProbes; ++i) dense.CumulativeSum(index(rng));
      });
      const double reads = static_cast<double>(probes.values_read) / kProbes;
      const int64_t dense_storage = dense.StorageCells();

      BcTree sparse(capacity, fanout);
      for (int64_t i = 0; i < capacity / 100; ++i) {
        sparse.Add(index(rng), 1);
      }
      table.AddRow({TablePrinter::FormatInt(capacity),
                    TablePrinter::FormatInt(fanout),
                    TablePrinter::FormatInt(dense.height()),
                    TablePrinter::FormatInt(writes),
                    TablePrinter::FormatDouble(reads, 1),
                    TablePrinter::FormatInt(dense_storage),
                    TablePrinter::FormatInt(sparse.StorageCells())});
    }
  }
  table.Print();
  std::printf("Fenwick storage is always exactly k cells; the B_c tree "
              "undercuts it on sparse contents and matches the paper's "
              "O(log_f k) update writes (one STS per level).\n");
}

}  // namespace
}  // namespace ddc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ddc::PrintOperationCountTable();
  return 0;
}
