// Measured-complexity tests: the operation-count shapes claimed by the
// paper (Table 1 and Theorems 1-2) must hold on the real implementations.
// These tests assert orderings and growth trends, not machine-dependent
// constants.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

// Worst-case update (at the anchor) touched-value counts for one (n, d).
struct UpdateCosts {
  int64_t prefix_sum;
  int64_t rps;
  int64_t basic_ddc;
  int64_t ddc;
};

UpdateCosts MeasureWorstCaseUpdate(int dims, int64_t side) {
  const Cell anchor = UniformCell(dims, 0);
  UpdateCosts costs{};

  PrefixSumCube ps(Shape::Cube(dims, side));
  costs.prefix_sum = CountsOf([&] { ps.Add(anchor, 1); }).values_written;

  RelativePrefixSumCube rps(Shape::Cube(dims, side));
  costs.rps = CountsOf([&] { rps.Add(anchor, 1); }).values_written;

  BasicDdc basic(dims, side);
  costs.basic_ddc = CountsOf([&] { basic.Add(anchor, 1); }).values_written;

  DynamicDataCube ddc_cube(dims, side);
  costs.ddc = CountsOf([&] { ddc_cube.Add(anchor, 1); }).values_written;

  return costs;
}

// Table 1's ordering: PS >> RPS >> Basic DDC-ish >> DDC, already visible at
// laptop sizes.
TEST(ComplexityTest, Table1OrderingHolds2D) {
  const UpdateCosts costs = MeasureWorstCaseUpdate(2, 256);
  EXPECT_EQ(costs.prefix_sum, 256 * 256);  // Exactly n^d at the anchor.
  EXPECT_GT(costs.prefix_sum, 8 * costs.rps);
  EXPECT_GT(costs.rps, costs.ddc);
  EXPECT_GT(costs.basic_ddc, costs.ddc);
}

TEST(ComplexityTest, Table1OrderingHolds3D) {
  const UpdateCosts costs = MeasureWorstCaseUpdate(3, 32);
  EXPECT_EQ(costs.prefix_sum, 32 * 32 * 32);
  EXPECT_GT(costs.prefix_sum, costs.rps);
  EXPECT_GT(costs.rps, costs.ddc);
  EXPECT_GT(costs.basic_ddc, costs.ddc);
}

// PS update grows like n^d: quadrupling when n doubles (d=2).
TEST(ComplexityTest, PrefixSumUpdateGrowsAsNd) {
  const int64_t a = MeasureWorstCaseUpdate(2, 64).prefix_sum;
  const int64_t b = MeasureWorstCaseUpdate(2, 128).prefix_sum;
  EXPECT_EQ(b, 4 * a);
}

// RPS update grows like n (d=2): doubling when n quadruples is ~2x, n -> 4n
// gives ~4x within small constants.
TEST(ComplexityTest, RpsUpdateGrowsAsSqrtOfCube) {
  const int64_t a = MeasureWorstCaseUpdate(2, 64).rps;
  const int64_t b = MeasureWorstCaseUpdate(2, 256).rps;
  // Model: (n/k + k)^2 with k = sqrt(n): 4n. 64 -> 256 and 256 -> 1024.
  EXPECT_GE(b, 3 * a);
  EXPECT_LE(b, 6 * a);
}

// Basic DDC update grows linearly in n for d=2 (Section 3.2's O(n^{d-1})).
TEST(ComplexityTest, BasicDdcUpdateGrowsLinearly2D) {
  const int64_t a = MeasureWorstCaseUpdate(2, 64).basic_ddc;
  const int64_t b = MeasureWorstCaseUpdate(2, 256).basic_ddc;
  EXPECT_GE(b, 3 * a);
  EXPECT_LE(b, 5 * a);
}

// DDC update cost is polylog: doubling n adds a roughly constant increment
// (one more level), unlike every baseline's multiplicative growth.
TEST(ComplexityTest, DdcUpdateGrowsPolylogarithmically) {
  std::vector<int64_t> costs;
  for (int64_t n : {64, 128, 256, 512, 1024}) {
    costs.push_back(MeasureWorstCaseUpdate(2, n).ddc);
  }
  for (size_t i = 1; i < costs.size(); ++i) {
    // Far slower than linear growth (each step doubles n).
    EXPECT_LT(costs[i], costs[i - 1] * 2) << "step " << i;
  }
  // And the largest stays within a small multiple of (log2 n)^2 = 100.
  EXPECT_LE(costs.back(),
            static_cast<int64_t>(60 * std::pow(std::log2(1024.0), 2)));
}

// Ratio sanity against the closed forms used by the Table 1 bench: measured
// PS / DDC gap at n=256, d=2 must already exceed 100x.
TEST(ComplexityTest, MeasuredGapMatchesModelDirection) {
  const UpdateCosts costs = MeasureWorstCaseUpdate(2, 256);
  EXPECT_GT(costs.prefix_sum, 100 * costs.ddc);
}

// DDC queries are polylog too: compare against the naive-scan region size.
TEST(ComplexityTest, DdcQueryPolylog) {
  const int64_t n = 512;
  DynamicDataCube cube(2, n);
  WorkloadGenerator gen(Shape::Cube(2, n), 3);
  for (const UpdateOp& op : gen.UniformUpdates(500, 1, 9)) {
    cube.Add(op.cell, op.delta);
  }
  int64_t worst_read = 0;
  for (int i = 0; i < 40; ++i) {
    const Cell probe = gen.UniformCell();
    worst_read = std::max(
        worst_read, CountsOf([&] { cube.PrefixSum(probe); }).values_read);
  }
  // O(log^2 n) with B_c constants: far below the O(n) a scan would need for
  // typical probes (let alone n^2).
  EXPECT_LT(worst_read, n);
}

// Theorem 1's navigation bound for the Basic DDC: one child per level.
TEST(ComplexityTest, BasicDdcVisitsOneNodePerLevel) {
  BasicDdc cube(2, 256);
  WorkloadGenerator gen(Shape::Cube(2, 256), 4);
  for (const UpdateOp& op : gen.UniformUpdates(200, 1, 9)) {
    cube.Add(op.cell, op.delta);
  }
  EXPECT_LE(CountsOf([&] { cube.PrefixSum({200, 133}); }).nodes_visited,
            cube.num_levels());
}

}  // namespace
}  // namespace ddc
