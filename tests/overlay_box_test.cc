#include "basic_ddc/overlay_box.h"

#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "common/cost_model.h"
#include "common/op_counter.h"
#include "common/shape.h"

namespace ddc {
namespace {

// Helper: brute-force reference box holding its own cell values; stored
// values are box-local prefix sums.
class ReferenceBox {
 public:
  ReferenceBox(int dims, int64_t side) : cells_(Shape::Cube(dims, side)) {}

  void Add(const Cell& offset, int64_t delta) { cells_.at(offset) += delta; }

  int64_t PrefixAt(const Cell& offset) const {
    int64_t sum = 0;
    cells_.ForEach([&](const Cell& c, const int64_t& v) {
      if (DominatedBy(c, offset)) sum += v;
    });
    return sum;
  }

 private:
  MdArray<int64_t> cells_;
};

bool OnFarFace(const Cell& offset, int64_t side) {
  for (Coord c : offset) {
    if (c == side - 1) return true;
  }
  return false;
}

TEST(OverlayBoxTest, StorageMatchesClosedForm) {
  for (int d = 1; d <= 4; ++d) {
    for (int64_t k : {1, 2, 4, 8}) {
      OverlayBoxArray box(d, k);
      EXPECT_EQ(box.StorageCells(), OverlayBoxStorageCells(k, d))
          << "d=" << d << " k=" << k;
    }
  }
}

TEST(OverlayBoxTest, Table2Rows) {
  // Table 2 of the paper (d = 2): storage percentages 43.75%, 23.44%,
  // 12.11%, 6.15%, 3.10% for k = 4..64.
  const int64_t ks[] = {4, 8, 16, 32, 64};
  const double expected_pct[] = {43.75, 23.44, 12.11, 6.15, 3.10};
  for (int i = 0; i < 5; ++i) {
    OverlayBoxArray box(2, ks[i]);
    const double pct = 100.0 * static_cast<double>(box.StorageCells()) /
                       static_cast<double>(OverlayBoxRegionCells(ks[i], 2));
    EXPECT_NEAR(pct, expected_pct[i], 0.01) << "k=" << ks[i];
  }
}

TEST(OverlayBoxTest, SingleCellBoxIsJustSubtotal) {
  OverlayBoxArray box(2, 1);
  EXPECT_EQ(box.StorageCells(), 1);
  box.ApplyDelta({0, 0}, 42);
  EXPECT_EQ(box.Subtotal(), 42);
  EXPECT_EQ(box.ValueAt({0, 0}), 42);
}

TEST(OverlayBoxTest, TwoDimensionalRowSums) {
  // A 4x4 box; insert known values and check the Figure 7 row-sum
  // semantics: value at (i, 3) = sum of rows 0..i; value at (3, j) = sum of
  // columns 0..j.
  OverlayBoxArray box(2, 4);
  ReferenceBox ref(2, 4);
  Shape shape = Shape::Cube(2, 4);
  Cell c(2, 0);
  int64_t v = 1;
  do {
    box.ApplyDelta(c, v);
    ref.Add(c, v);
    ++v;
  } while (shape.NextCell(&c));

  Cell probe(2, 0);
  do {
    if (!OnFarFace(probe, 4)) continue;
    EXPECT_EQ(box.ValueAt(probe), ref.PrefixAt(probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
  EXPECT_EQ(box.Subtotal(), ref.PrefixAt({3, 3}));
}

class OverlayBoxRandomTest
    : public ::testing::TestWithParam<std::pair<int, int64_t>> {};

TEST_P(OverlayBoxRandomTest, AllFarFaceValuesMatchReference) {
  const auto [d, k] = GetParam();
  OverlayBoxArray box(d, k);
  ReferenceBox ref(d, k);
  Shape shape = Shape::Cube(d, k);
  std::mt19937_64 rng(static_cast<uint64_t>(d * 100 + k));
  std::uniform_int_distribution<int64_t> delta(-9, 9);

  for (int round = 0; round < 60; ++round) {
    const Cell target = shape.CellAt(
        std::uniform_int_distribution<int64_t>(0, shape.num_cells() - 1)(rng));
    const int64_t dv = delta(rng);
    box.ApplyDelta(target, dv);
    ref.Add(target, dv);
  }

  Cell probe(static_cast<size_t>(d), 0);
  do {
    if (!OnFarFace(probe, k)) continue;
    ASSERT_EQ(box.ValueAt(probe), ref.PrefixAt(probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
}

INSTANTIATE_TEST_SUITE_P(
    DimSideSweep, OverlayBoxRandomTest,
    ::testing::Values(std::pair<int, int64_t>{1, 4},
                      std::pair<int, int64_t>{2, 2},
                      std::pair<int, int64_t>{2, 4},
                      std::pair<int, int64_t>{2, 8},
                      std::pair<int, int64_t>{3, 2},
                      std::pair<int, int64_t>{3, 4},
                      std::pair<int, int64_t>{4, 2},
                      std::pair<int, int64_t>{4, 4}));

TEST(OverlayBoxTest, UpdateCountsWrites) {
  OverlayBoxArray box(2, 4);
  // Updating the anchor (0,0) touches every stored value: 2k-1 = 7.
  EXPECT_EQ(CountsOf([&] { box.ApplyDelta({0, 0}, 1); }).values_written, 7);
  // Updating the far corner touches only the subtotal cell.
  EXPECT_EQ(CountsOf([&] { box.ApplyDelta({3, 3}, 1); }).values_written, 1);
}

}  // namespace
}  // namespace ddc
