// Direct unit tests of the FaceStore abstraction (Section 4.2): every face
// implementation must behave as the prefix-sum structure of its line-sum
// array.

#include "ddc/face_store.h"

#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "common/md_array.h"
#include "common/op_counter.h"
#include "common/shape.h"
#include "ddc/ddc_core.h"

namespace ddc {
namespace {

// Reference: dense line-sum array with brute-force prefix sums.
class ReferenceFace {
 public:
  ReferenceFace(int dims, int64_t side) : g_(Shape::Cube(dims, side)) {}

  void Add(const Cell& y, int64_t delta) { g_.at(y) += delta; }

  int64_t PrefixSum(const Cell& y) const {
    int64_t sum = 0;
    g_.ForEach([&](const Cell& c, const int64_t& v) {
      if (DominatedBy(c, y)) sum += v;
    });
    return sum;
  }

 private:
  MdArray<int64_t> g_;
};

// FaceStore keys are caller scratch (a nested face rebases them in place),
// so each call gets its own copy of the cell.
void AddAt(FaceStore::Owned& store, Cell y, int64_t delta) {
  store.Add(y.data(), delta);
}
int64_t PrefixAt(const FaceStore::Owned& store, Cell y) {
  return store.PrefixSum(y.data());
}

struct FaceParam {
  int transverse_dims;
  int64_t side;
  bool use_fenwick;
  int elide_levels = 0;
};

class FaceStoreTest : public ::testing::TestWithParam<FaceParam> {};

TEST_P(FaceStoreTest, MatchesReferenceOnRandomOps) {
  const FaceParam p = GetParam();
  DdcOptions options;
  options.use_fenwick = p.use_fenwick;
  options.elide_levels = p.elide_levels;
  FaceStore::Owned store =
      FaceStore::Create(p.transverse_dims, p.side, options);
  ReferenceFace reference(p.transverse_dims, p.side);

  const Shape shape = Shape::Cube(p.transverse_dims, p.side);
  std::mt19937_64 rng(static_cast<uint64_t>(p.transverse_dims * 100 + p.side));
  std::uniform_int_distribution<int64_t> pick(0, shape.num_cells() - 1);
  std::uniform_int_distribution<int64_t> delta(-9, 9);

  for (int op = 0; op < 150; ++op) {
    const Cell y = shape.CellAt(pick(rng));
    const int64_t d = delta(rng);
    AddAt(store, y, d);
    reference.Add(y, d);
    const Cell probe = shape.CellAt(pick(rng));
    ASSERT_EQ(PrefixAt(store, probe), reference.PrefixSum(probe))
        << CellToString(probe) << " op " << op;
  }
}

TEST_P(FaceStoreTest, BuildFromDenseMatchesIncremental) {
  const FaceParam p = GetParam();
  DdcOptions options;
  options.use_fenwick = p.use_fenwick;
  options.elide_levels = p.elide_levels;
  const Shape shape = Shape::Cube(p.transverse_dims, p.side);
  MdArray<int64_t> dense(shape);
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int64_t> value(-5, 5);
  dense.ForEach([&](const Cell&, int64_t& v) { v = value(rng); });

  auto bulk = FaceStore::Create(p.transverse_dims, p.side, options);
  bulk.BuildFromDense(dense);
  auto incremental =
      FaceStore::Create(p.transverse_dims, p.side, options);
  dense.ForEach([&](const Cell& c, const int64_t& v) {
    if (v != 0) AddAt(incremental, c, v);
  });

  Cell probe(static_cast<size_t>(p.transverse_dims), 0);
  do {
    ASSERT_EQ(PrefixAt(bulk, probe), PrefixAt(incremental, probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, FaceStoreTest,
    ::testing::Values(FaceParam{1, 2, false}, FaceParam{1, 16, false},
                      FaceParam{1, 16, true}, FaceParam{1, 64, false},
                      FaceParam{2, 4, false}, FaceParam{2, 8, false},
                      FaceParam{3, 4, false}, FaceParam{3, 4, true},
                      FaceParam{3, 8, false},
                      // Leaf faces: no larger than the nested leaf block.
                      FaceParam{2, 2, false}, FaceParam{3, 2, false},
                      FaceParam{2, 4, false, 1},
                      // Nested again once the face outgrows the block.
                      FaceParam{2, 8, false, 1}));

// A face of >= 2 transverse dimensions no larger than a leaf block
// (side <= 2^(elide_levels+1)) is one bare slab of side^(d-1) values: it
// answers every dominance sum of the line-sum array, and stores exactly the
// slab once written.
TEST(FaceStoreTest, LeafFacesAreOneSlab) {
  const FaceParam leaves[] = {FaceParam{2, 2, false}, FaceParam{3, 2, false},
                              FaceParam{2, 4, false, 1}};
  for (const FaceParam& p : leaves) {
    SCOPED_TRACE(testing::Message() << "dims=" << p.transverse_dims
                                    << " side=" << p.side
                                    << " elide=" << p.elide_levels);
    DdcOptions options;
    options.elide_levels = p.elide_levels;
    Arena arena;
    EXPECT_EQ(FaceStore::MakeEnv(p.transverse_dims, p.side, options, &arena)
                  .kind,
              FaceStore::Kind::kLeaf);
    EXPECT_EQ(FaceStore::MakeEnv(p.transverse_dims, p.side * 2, options,
                                 &arena)
                  .kind,
              FaceStore::Kind::kNested);

    auto store = FaceStore::Create(p.transverse_dims, p.side, options);
    ReferenceFace reference(p.transverse_dims, p.side);
    const Shape shape = Shape::Cube(p.transverse_dims, p.side);
    EXPECT_EQ(store.StorageCells(), 0);
    const OpCounters empty_read = CountsOf([&] {
      EXPECT_EQ(PrefixAt(store, shape.CellAt(shape.num_cells() - 1)), 0);
    });
    EXPECT_EQ(empty_read.nodes_visited, 0);  // Unwritten: nothing to visit.

    std::mt19937_64 rng(static_cast<uint64_t>(p.transverse_dims * 10 +
                                              p.side));
    std::uniform_int_distribution<int64_t> pick(0, shape.num_cells() - 1);
    std::uniform_int_distribution<int64_t> delta(-9, 9);
    for (int op = 0; op < 60; ++op) {
      const Cell y = shape.CellAt(pick(rng));
      int64_t d = delta(rng);
      if (d == 0) d = 5;  // Every write lands.
      const OpCounters write = CountsOf([&] { AddAt(store, y, d); });
      // One slab visit and one value written, as the nested core whose
      // single leaf block this face replaces.
      EXPECT_EQ(write.nodes_visited, 1);
      EXPECT_EQ(write.values_written, 1);
      reference.Add(y, d);
      Cell probe(static_cast<size_t>(p.transverse_dims), 0);
      do {
        ASSERT_EQ(PrefixAt(store, probe), reference.PrefixSum(probe))
            << CellToString(probe) << " op " << op;
      } while (shape.NextCell(&probe));
      EXPECT_EQ(store.StorageCells(), shape.num_cells());
    }
  }
}

TEST(FaceStoreTest, EmptyStoreAnswersZero) {
  auto store = FaceStore::Create(2, 8, DdcOptions{});
  EXPECT_EQ(PrefixAt(store, {7, 7}), 0);
  EXPECT_EQ(store.StorageCells(), 0);
}

TEST(FaceStoreTest, CountsReachTheThreadsBlock) {
  auto store = FaceStore::Create(1, 64, DdcOptions{});
  EXPECT_GT(CountsOf([&] { AddAt(store, {10}, 5); }).values_written, 0);
  const OpCounters read = CountsOf([&] { PrefixAt(store, {20}); });
  EXPECT_GT(read.values_read, 0);
  EXPECT_EQ(read.values_written, 0);  // Queries don't write.
}

}  // namespace
}  // namespace ddc
