#include "bctree/bc_tree.h"

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/op_counter.h"

namespace ddc {
namespace {

// Reproduces the worked example of Figure 14: six row sums with values
// 14, 9, 10, 12, 8, 13 (leaf values are individual row sums; the paper's
// overlay stores the cumulative sums 14, 23, 33, 45, 53, 66).
TEST(BcTreeTest, PaperFigure14Example) {
  BcTree tree(6, /*fanout=*/3);
  const int64_t leaf_values[] = {14, 9, 10, 12, 8, 13};
  for (int64_t i = 0; i < 6; ++i) tree.Add(i, leaf_values[i]);

  // "Suppose we wish to find the value of row sum cell 5": the paper walks
  // 33 + 12 + 8 = 53 (its cells are 1-indexed; our index 4).
  EXPECT_EQ(tree.CumulativeSum(4), 53);
  EXPECT_EQ(tree.CumulativeSum(0), 14);
  EXPECT_EQ(tree.CumulativeSum(5), 66);
  EXPECT_EQ(tree.TotalSum(), 66);

  // "Suppose an update causes row sum cell 3 to change from 10 to 15"
  // (1-indexed cell 3 = our index 2, +5).
  tree.Add(2, 5);
  EXPECT_EQ(tree.Value(2), 15);
  EXPECT_EQ(tree.CumulativeSum(2), 38);  // Paper: root STS becomes 38.
  EXPECT_EQ(tree.CumulativeSum(4), 58);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeTest, EmptyTreeIsAllZero) {
  BcTree tree(100);
  EXPECT_EQ(tree.CumulativeSum(0), 0);
  EXPECT_EQ(tree.CumulativeSum(99), 0);
  EXPECT_EQ(tree.Value(50), 0);
  EXPECT_EQ(tree.TotalSum(), 0);
  EXPECT_EQ(tree.StorageCells(), 0);  // Nothing materialized.
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeTest, SingleElement) {
  BcTree tree(1, 2);
  tree.Add(0, 42);
  EXPECT_EQ(tree.CumulativeSum(0), 42);
  EXPECT_EQ(tree.Value(0), 42);
}

TEST(BcTreeTest, NegativeValuesAndCancellation) {
  BcTree tree(16, 4);
  tree.Add(3, 10);
  tree.Add(3, -10);
  EXPECT_EQ(tree.CumulativeSum(15), 0);
  EXPECT_EQ(tree.Value(3), 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeTest, LazyAllocationOnlyTouchedPaths) {
  BcTree tree(1 << 20, 8);
  tree.Add(0, 1);
  tree.Add((1 << 20) - 1, 1);
  // Two root-to-leaf paths of height log_8(2^20) = 7 nodes at 8 entries.
  EXPECT_LE(tree.StorageCells(), 2 * 7 * 8);
  EXPECT_EQ(tree.CumulativeSum((1 << 20) - 1), 2);
  EXPECT_EQ(tree.CumulativeSum((1 << 20) - 2), 1);
  EXPECT_TRUE(tree.CheckInvariants());
}

struct BcTreeParam {
  int64_t capacity;
  int fanout;
};

class BcTreeRandomTest : public ::testing::TestWithParam<BcTreeParam> {};

// Property test: against a reference vector, cumulative sums agree after
// every update, across capacities and fanouts.
TEST_P(BcTreeRandomTest, MatchesReferenceVector) {
  const BcTreeParam param = GetParam();
  BcTree tree(param.capacity, param.fanout);
  std::vector<int64_t> reference(static_cast<size_t>(param.capacity), 0);
  std::mt19937_64 rng(param.capacity * 31 + param.fanout);
  std::uniform_int_distribution<int64_t> index(0, param.capacity - 1);
  std::uniform_int_distribution<int64_t> delta(-50, 50);

  for (int op = 0; op < 400; ++op) {
    const int64_t i = index(rng);
    const int64_t d = delta(rng);
    tree.Add(i, d);
    reference[static_cast<size_t>(i)] += d;

    const int64_t probe = index(rng);
    int64_t expected = 0;
    for (int64_t j = 0; j <= probe; ++j) {
      expected += reference[static_cast<size_t>(j)];
    }
    ASSERT_EQ(tree.CumulativeSum(probe), expected)
        << "probe=" << probe << " op=" << op;
  }
  EXPECT_TRUE(tree.CheckInvariants());

  int64_t total = 0;
  for (int64_t v : reference) total += v;
  EXPECT_EQ(tree.TotalSum(), total);
  for (int64_t j = 0; j < param.capacity; j += std::max<int64_t>(1, param.capacity / 13)) {
    EXPECT_EQ(tree.Value(j), reference[static_cast<size_t>(j)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityFanoutSweep, BcTreeRandomTest,
    ::testing::Values(BcTreeParam{1, 2}, BcTreeParam{2, 2}, BcTreeParam{3, 2},
                      BcTreeParam{7, 2}, BcTreeParam{8, 2}, BcTreeParam{9, 3},
                      BcTreeParam{16, 4}, BcTreeParam{27, 3},
                      BcTreeParam{64, 8}, BcTreeParam{100, 5},
                      BcTreeParam{128, 16}, BcTreeParam{1000, 8},
                      BcTreeParam{1024, 2}));

// The update cost is O(log_f k): exactly one STS (or leaf value) write per
// level of the conceptual tree.
TEST(BcTreeTest, UpdateWritesOnePerLevel) {
  BcTree tree(4096, 8);  // height = 4 (8^4 = 4096).
  EXPECT_EQ(CountsOf([&] { tree.Add(1234, 5); }).values_written,
            tree.height());
  EXPECT_EQ(tree.height(), 4);
}

// The query cost is O(f log_f k): at most f-1 STS reads per level plus the
// leaf partial sum.
TEST(BcTreeTest, QueryReadsBoundedByFanoutTimesHeight) {
  BcTree tree(4096, 8);
  for (int64_t i = 0; i < 4096; i += 7) tree.Add(i, 1);
  EXPECT_LE(CountsOf([&] { tree.CumulativeSum(4095); }).values_read,
            int64_t{8} * tree.height());
}

// Capacity <= 2 trees hold their entries inline in the face (no node): a
// plain array is the oracle for every read, for the storage they report
// (the capacity's entries while any is nonzero, none once every entry has
// cancelled back to zero) and for the one-leaf cost counts.
TEST(BcTreeTest, InlineCapacitiesMatchAPlainArray) {
  for (const int64_t capacity : {1, 2}) {
    for (const int fanout : {2, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "capacity=" << capacity << " fanout=" << fanout);
      BcTree tree(capacity, fanout);
      std::vector<int64_t> reference(static_cast<size_t>(capacity), 0);
      // Signed deltas, including ones that cancel an entry (and then the
      // whole face) back to exactly zero.
      const std::vector<std::pair<int64_t, int64_t>> ops = {
          {0, 5},  {1, -3}, {0, -5}, {1, 3},  {1, 7},  {0, -7},
          {0, 7},  {1, -7}, {0, -7}, {1, 11}, {0, 4},  {1, -11},
          {0, -4}, {0, -9}, {1, 9},  {1, -9}, {0, 9},  {0, -9}};
      for (const auto& [raw_index, delta] : ops) {
        const int64_t index = raw_index % capacity;
        const OpCounters write = CountsOf([&] { tree.Add(index, delta); });
        EXPECT_EQ(write.nodes_visited, 1);
        EXPECT_EQ(write.values_written, 1);
        reference[static_cast<size_t>(index)] += delta;

        bool any_nonzero = false;
        int64_t prefix = 0;
        for (int64_t i = 0; i < capacity; ++i) {
          const int64_t v = reference[static_cast<size_t>(i)];
          any_nonzero |= v != 0;
          prefix += v;
          EXPECT_EQ(tree.Value(i), v) << "i=" << i;
          EXPECT_EQ(tree.CumulativeSum(i), prefix) << "i=" << i;
        }
        EXPECT_EQ(tree.TotalSum(), prefix);
        EXPECT_EQ(tree.StorageCells(), any_nonzero ? capacity : 0);
        EXPECT_TRUE(tree.CheckInvariants());

        // Reads cost one leaf visit plus the entries summed; an all-zero
        // face answers with no visit, as an unmaterialized tree does.
        const OpCounters read =
            CountsOf([&] { tree.CumulativeSum(capacity - 1); });
        EXPECT_EQ(read.nodes_visited, any_nonzero ? 1 : 0);
        EXPECT_EQ(read.values_read, any_nonzero ? capacity : 0);
      }

      BcTree built(capacity, fanout);
      const std::vector<int64_t> values = {-6, 6};
      built.BuildFrom(std::vector<int64_t>(
          values.begin(), values.begin() + capacity));
      EXPECT_EQ(built.Value(0), -6);
      EXPECT_EQ(built.CumulativeSum(capacity - 1), capacity == 2 ? 0 : -6);
      EXPECT_EQ(built.StorageCells(), capacity);
      EXPECT_TRUE(built.CheckInvariants());
    }
  }
}

}  // namespace
}  // namespace ddc
