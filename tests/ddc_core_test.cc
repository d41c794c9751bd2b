#include "ddc/ddc_core.h"

#include <map>
#include <random>

#include <gtest/gtest.h>

#include "common/shape.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "paper_example.h"

namespace ddc {
namespace {

using testing_support::kTargetCell;
using testing_support::kTargetRegionSum;
using testing_support::LoadPaperArray;

TEST(DdcCoreTest, PaperWalkthrough) {
  DynamicDataCube cube(2, 8);
  LoadPaperArray(&cube);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum);
  cube.Set(kTargetCell, 6);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum + 1);
  EXPECT_EQ(cube.Get(kTargetCell), 6);
}

TEST(DdcCoreTest, EmptyCube) {
  OwnedDdcCore core(3, 16, DdcOptions{});
  EXPECT_EQ(core.PrefixSum({15, 15, 15}), 0);
  EXPECT_EQ(core.Get({0, 0, 0}), 0);
  EXPECT_EQ(core.TotalSum(), 0);
  EXPECT_EQ(core.StorageCells(), 0);
}

TEST(DdcCoreTest, TotalSumIsMaintained) {
  OwnedDdcCore core(2, 32, DdcOptions{});
  core.Add({0, 0}, 5);
  core.Add({31, 31}, 7);
  core.Add({16, 3}, -2);
  EXPECT_EQ(core.TotalSum(), 10);
  EXPECT_EQ(core.PrefixSum({31, 31}), 10);
}

struct CoreParam {
  int dims;
  int64_t side;
  int elide_levels;
  bool use_fenwick;
  int bc_fanout;
};

class DdcCoreRandomTest : public ::testing::TestWithParam<CoreParam> {};

TEST_P(DdcCoreRandomTest, AgreesWithNaive) {
  const CoreParam p = GetParam();
  DdcOptions options;
  options.elide_levels = p.elide_levels;
  options.use_fenwick = p.use_fenwick;
  options.bc_fanout = p.bc_fanout;
  const Shape shape = Shape::Cube(p.dims, p.side);
  NaiveCube naive(shape);
  OwnedDdcCore core(p.dims, p.side, options);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(
                                   p.dims * 7919 + p.side * 13 +
                                   p.elide_levels * 3 + (p.use_fenwick ? 1 : 0)));
  for (int i = 0; i < 120; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    core.Add(op.cell, op.delta);
    const Cell probe = gen.UniformCell();
    ASSERT_EQ(core.PrefixSum(probe), naive.PrefixSum(probe))
        << CellToString(probe) << " after op " << i;
    ASSERT_EQ(core.Get(op.cell), naive.Get(op.cell));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimSideSweep, DdcCoreRandomTest,
    ::testing::Values(
        CoreParam{1, 2, 0, false, 8}, CoreParam{1, 64, 0, false, 8},
        CoreParam{2, 2, 0, false, 8}, CoreParam{2, 4, 0, false, 8},
        CoreParam{2, 16, 0, false, 8}, CoreParam{2, 64, 0, false, 2},
        CoreParam{3, 8, 0, false, 8}, CoreParam{3, 16, 0, false, 4},
        CoreParam{4, 4, 0, false, 8}, CoreParam{4, 8, 0, false, 8},
        // Section 4.4 space optimization: elided levels.
        CoreParam{2, 32, 1, false, 8}, CoreParam{2, 32, 2, false, 8},
        CoreParam{2, 32, 3, false, 8}, CoreParam{3, 16, 1, false, 8},
        CoreParam{3, 16, 2, false, 8},
        // Fenwick ablation.
        CoreParam{2, 32, 0, true, 8}, CoreParam{3, 8, 0, true, 8}));

// Answer-equivalence across every elision level h: the optimization trades
// space and query cost but never answers (Section 4.4).
TEST(DdcCoreTest, ElisionLevelsAreAnswerEquivalent) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 99);
  std::vector<UpdateOp> ops = gen.UniformUpdates(200, -9, 9);

  DdcOptions base;
  OwnedDdcCore reference(2, 64, base);
  for (const UpdateOp& op : ops) reference.Add(op.cell, op.delta);

  for (int h = 1; h <= 5; ++h) {
    DdcOptions options;
    options.elide_levels = h;
    OwnedDdcCore core(2, 64, options);
    for (const UpdateOp& op : ops) core.Add(op.cell, op.delta);
    WorkloadGenerator probes(shape, 100 + static_cast<uint64_t>(h));
    for (int i = 0; i < 100; ++i) {
      const Cell probe = probes.UniformCell();
      ASSERT_EQ(core.PrefixSum(probe), reference.PrefixSum(probe))
          << "h=" << h << " " << CellToString(probe);
    }
  }
}

// Storage decreases as h grows (the Table 2 motivation): the lowest tree
// levels are the dense ones.
TEST(DdcCoreTest, ElisionSavesStorage) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 7);
  std::vector<UpdateOp> ops = gen.UniformUpdates(2000, 1, 9);

  int64_t prev = INT64_MAX;
  for (int h = 0; h <= 3; ++h) {
    DdcOptions options;
    options.elide_levels = h;
    OwnedDdcCore core(2, 64, options);
    for (const UpdateOp& op : ops) core.Add(op.cell, op.delta);
    EXPECT_LT(core.StorageCells(), prev) << "h=" << h;
    prev = core.StorageCells();
  }
}

TEST(DdcCoreTest, ForEachNonZeroEnumeratesExactly) {
  const Shape shape = Shape::Cube(2, 32);
  OwnedDdcCore core(2, 32, DdcOptions{});
  std::map<std::pair<Coord, Coord>, int64_t> reference;
  WorkloadGenerator gen(shape, 17);
  for (int i = 0; i < 100; ++i) {
    Cell c = gen.UniformCell();
    int64_t d = gen.Value(-3, 3);
    core.Add(c, d);
    reference[{c[0], c[1]}] += d;
    if (reference[{c[0], c[1]}] == 0) reference.erase({c[0], c[1]});
  }
  std::map<std::pair<Coord, Coord>, int64_t> seen;
  core.ForEachNonZero([&](const Cell& c, int64_t v) {
    EXPECT_TRUE(seen.emplace(std::make_pair(c[0], c[1]), v).second)
        << "duplicate " << CellToString(c);
  });
  EXPECT_EQ(seen, reference);
}

// Sparse clustered cubes: storage is proportional to populated regions,
// not the domain (Section 5's clustered-data claim).
TEST(DdcCoreTest, ClusteredDataStaysSparse) {
  const int64_t side = 4096;
  OwnedDdcCore core(2, side, DdcOptions{});
  ClusteredGenerator gen(Shape::Cube(2, side), 4, 0.002, 23);
  for (int i = 0; i < 1000; ++i) {
    core.Add(gen.NextCell(), 1);
  }
  // The dense array would be 16.7M cells; the clustered cube stays far
  // below 1% of that.
  EXPECT_LT(core.StorageCells(), side * side / 100);
  EXPECT_EQ(core.TotalSum(), 1000);
}

// Cost counters: updates and queries stay polylog. For d=2, n=1024 the
// bound O(log^2 n) with modest constants.
TEST(DdcCoreTest, PolylogCosts) {
  OwnedDdcCore core(2, 1024, DdcOptions{});
  WorkloadGenerator gen(Shape::Cube(2, 1024), 31);
  for (const UpdateOp& op : gen.UniformUpdates(400, 1, 9)) {
    core.Add(op.cell, op.delta);
  }
  // log2(1024) = 10; allow generous constants: per level, one subtotal +
  // d B_c-tree updates of O(log k) writes each.
  EXPECT_LE(CountsOf([&] { core.Add({0, 0}, 1); }).values_written, 250);
  // All-subtotal fast path.
  EXPECT_LE(CountsOf([&] { core.PrefixSum({1023, 1023}); }).values_read, 50);
  // O(log^2 n) with B_c constants.
  EXPECT_LE(CountsOf([&] { core.PrefixSum({513, 511}); }).values_read, 800);
}

TEST(DdcCoreTest, MinBoxSideClamping) {
  DdcOptions options;
  options.elide_levels = 10;  // Larger than the tree: whole cube raw.
  OwnedDdcCore core(2, 16, options);
  EXPECT_EQ(core.min_box_side(), 16);
  core.Add({3, 3}, 5);
  EXPECT_EQ(core.PrefixSum({15, 15}), 5);
  EXPECT_EQ(core.StorageCells(), 256);  // One dense raw block.
}

// Closed-form structure of a fully dense cube at elide_levels 0 (smallest
// boxes of side 2): every region of side n, n/2, ..., 4 is a node holding
// 2^d boxes.
int64_t DenseNodes(int dims, int64_t side) {
  int64_t nodes = 0;
  int64_t per_level = 1;
  for (int64_t s = side; s >= 4; s /= 2) {
    nodes += per_level;
    per_level <<= dims;
  }
  return nodes;
}

int64_t DenseBoxes(int dims, int64_t side) {
  return DenseNodes(dims, side) << dims;
}

// Stored values of a fully dense face over `dims` transverse dimensions
// of extent k (every line sum positive): a 1-D face of capacity <= 2 holds
// its k entries inline, a larger one is a sparse fanout-8 B_c tree with
// every leaf and interior node materialized; a side-2 face of >= 2
// dimensions is one bare leaf slab, a larger one a nested dense core.
int64_t DenseCoreCells(int dims, int64_t side);
int64_t DenseFaceCells(int dims, int64_t k) {
  if (dims == 1) {
    if (k <= 2) return k;
    int64_t nodes = 0;
    int64_t span = 8;
    do {
      nodes += (k + span - 1) / span;
      span *= 8;
    } while (span / 8 < k);
    return nodes * 8;
  }
  if (k == 2) return int64_t{1} << dims;
  return DenseCoreCells(dims, k);
}

// Stored values of a fully dense core at elide_levels 0: per level, one
// subtotal and d faces per box, plus the side^d cells of the leaf blocks.
int64_t DenseCoreCells(int dims, int64_t side) {
  int64_t cells = 0;
  int64_t boxes = int64_t{1} << dims;
  for (int64_t k = side / 2; k >= 2; k /= 2) {
    cells += boxes * (1 + dims * DenseFaceCells(dims - 1, k));
    boxes <<= dims;
  }
  int64_t leaf_cells = 1;
  for (int i = 0; i < dims; ++i) leaf_cells *= side;
  return cells + leaf_cells;
}

struct DenseCore {
  DdcStats stats;
  int64_t storage_cells;
};

DenseCore FullyDense(int dims, int64_t side) {
  OwnedDdcCore core(dims, side, DdcOptions{});
  const Shape shape = Shape::Cube(dims, side);
  Cell cell(static_cast<size_t>(dims), 0);
  do {
    core.Add(cell, 1);
  } while (shape.NextCell(&cell));
  return {core.Stats(), core.StorageCells()};
}

TEST(DdcCoreTest, StatsCountTheFaceHierarchyOfADense2DCube) {
  // Each box holds two 1-D B_c faces and no nested cores.
  const DenseCore dense = FullyDense(2, 32);
  const DdcStats& stats = dense.stats;
  EXPECT_EQ(stats.nodes, 85);  // 1 + 4 + 16 + 64.
  EXPECT_EQ(stats.nodes, DenseNodes(2, 32));
  EXPECT_EQ(stats.boxes, DenseBoxes(2, 32));
  EXPECT_EQ(stats.face_stores, 2 * stats.boxes);
  EXPECT_EQ(stats.bc_faces, 2 * stats.boxes);
  EXPECT_EQ(stats.nested_cores, 0);
  EXPECT_EQ(stats.leaf_faces, 0);
  EXPECT_EQ(stats.nonzero_cells, 32 * 32);
  // 340 subtotals; faces 4*2*24 + 16*2*8 + 64*2*8 + 256*2*2 (the side-2
  // faces inline); 1024 leaf cells.
  EXPECT_EQ(dense.storage_cells, DenseCoreCells(2, 32));
  EXPECT_EQ(dense.storage_cells, 3860);
}

TEST(DdcCoreTest, StatsCountTheFaceHierarchyOfADense3DCube) {
  // Each box of side k >= 4 holds three nested 2-D cores of side k, each
  // itself fully dense (all line sums are positive) with two B_c faces per
  // box; each side-2 box holds three bare 2x2 leaf faces.
  const int64_t side = 16;
  const DenseCore dense = FullyDense(3, side);
  const DdcStats& stats = dense.stats;
  int64_t bc_faces = 0;
  int64_t boxes_at_level = 8;
  for (int64_t node_side = side; node_side >= 4; node_side /= 2) {
    bc_faces += boxes_at_level * 3 * 2 * DenseBoxes(2, node_side / 2);
    boxes_at_level *= 8;
  }
  // The last node level, (side/4)^3 nodes of 8 side-2 boxes each.
  const int64_t side2_boxes = (side / 4) * (side / 4) * (side / 4) * 8;
  EXPECT_EQ(stats.boxes, DenseBoxes(3, side));
  EXPECT_EQ(stats.boxes, 584);  // 8 * (1 + 8 + 64).
  EXPECT_EQ(stats.face_stores, 3 * stats.boxes);
  EXPECT_EQ(stats.nested_cores, 3 * (stats.boxes - side2_boxes));
  EXPECT_EQ(stats.nested_cores, 216);  // 3 * (8 + 64).
  EXPECT_EQ(stats.leaf_faces, 3 * side2_boxes);
  EXPECT_EQ(stats.leaf_faces, 1536);  // 3 * 512.
  EXPECT_EQ(stats.bc_faces, bc_faces);
  EXPECT_EQ(stats.bc_faces, 2496);  // 8*6*20 + 64*6*4.
  // 584 subtotals; faces 8*3*212 + 64*3*36 + 512*3*4 (nested side-8 and
  // side-4 cores, bare side-2 slabs); 4096 leaf cells.
  EXPECT_EQ(dense.storage_cells, DenseCoreCells(3, side));
  EXPECT_EQ(dense.storage_cells, 22824);
}

}  // namespace
}  // namespace ddc
