// Differential tests for the cache-conscious kernel layer (DESIGN.md §13):
// every optimized path (branchless descents, fused cache-line node slabs,
// vectorized block sums, tree-ordered batches) must be bit-exact with the
// scalar reference implementations reachable through kernels::ForceScalar,
// across fanouts, capacities, lazy-sparse shapes, and re-roots. Also covers
// the B_c node slabs' cache-line contract and the scratch-reuse guarantee of
// repeated batched updates.
//
// Runs under both -DDDC_NATIVE=ON (AVX2 kernels) and OFF (portable
// kernels), and is part of the `sanitize` ctest label so TSan/ASan builds
// exercise it (tools/run_sanitizers.sh).

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bctree/bc_tree.h"
#include "bctree/fenwick_tree.h"
#include "common/arena.h"
#include "common/kernels.h"
#include "common/mutation.h"
#include "ddc/ddc_core.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

// ---------------------------------------------------------------------------
// Raw kernels vs scalar references.

TEST(Kernels, SumMatchesScalarAcrossLengthsAndValues) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int64_t> small(-1000, 1000);
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<int64_t> v(n);
    for (auto& x : v) x = small(rng);
    EXPECT_EQ(kernels::Sum(v.data(), n), kernels::SumScalar(v.data(), n))
        << "n=" << n;
  }
  // Wrap-around: int64 addition is associative mod 2^64, so the
  // multi-accumulator and SIMD orders must still agree bit-exactly.
  std::vector<int64_t> extreme = {std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min(),
                                  -1,
                                  1,
                                  std::numeric_limits<int64_t>::min()};
  for (size_t n = 0; n <= extreme.size(); ++n) {
    EXPECT_EQ(kernels::Sum(extreme.data(), n),
              kernels::SumScalar(extreme.data(), n));
  }
}

TEST(Kernels, MaskedPrefixSumMatchesScalarAcrossFanouts) {
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int64_t> values(-1000000, 1000000);
  for (size_t fanout : {size_t{2}, size_t{3}, size_t{5}, size_t{7}, size_t{8},
                        size_t{15}, size_t{16}, size_t{32}, size_t{64}}) {
    std::vector<int64_t> node(fanout);
    for (auto& x : node) x = values(rng);
    for (size_t count = 0; count <= fanout; ++count) {
      EXPECT_EQ(kernels::MaskedPrefixSum(node.data(), fanout, count),
                kernels::MaskedPrefixSumScalar(node.data(), fanout, count))
          << "fanout=" << fanout << " count=" << count;
    }
  }
}

TEST(Kernels, ForceScalarSwitchRoundTrips) {
  EXPECT_FALSE(kernels::UseScalar());
  {
    kernels::ScopedForceScalar force(true);
    EXPECT_TRUE(kernels::UseScalar());
    {
      kernels::ScopedForceScalar inner(false);
      EXPECT_FALSE(kernels::UseScalar());
    }
    EXPECT_TRUE(kernels::UseScalar());
  }
  EXPECT_FALSE(kernels::UseScalar());
}

// ---------------------------------------------------------------------------
// BcTree differentials: optimized vs forced-scalar vs a prefix oracle.

void DriveTreeDifferential(int64_t capacity, int fanout, int ops,
                           uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity=" << capacity << " fanout="
                                  << fanout << " seed=" << seed);
  BcTree opt(capacity, fanout);
  BcTree scalar(capacity, fanout);
  std::vector<int64_t> oracle(static_cast<size_t>(capacity), 0);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> pos(0, capacity - 1);
  std::uniform_int_distribution<int64_t> delta(-50, 50);
  std::uniform_int_distribution<int> action(0, 3);
  for (int i = 0; i < ops; ++i) {
    if (action(rng) == 0) {
      const int64_t p = pos(rng);
      const int64_t d = delta(rng);
      oracle[static_cast<size_t>(p)] += d;
      opt.Add(p, d);
      {
        kernels::ScopedForceScalar force(true);
        scalar.Add(p, d);
      }
    } else {
      const int64_t p = pos(rng);
      int64_t expected = 0;
      for (int64_t j = 0; j <= p; ++j) {
        expected += oracle[static_cast<size_t>(j)];
      }
      const int64_t got_opt = opt.CumulativeSum(p);
      int64_t got_scalar;
      {
        kernels::ScopedForceScalar force(true);
        got_scalar = scalar.CumulativeSum(p);
      }
      ASSERT_EQ(got_opt, expected) << "p=" << p;
      ASSERT_EQ(got_scalar, expected) << "p=" << p;
      ASSERT_EQ(opt.Value(p), oracle[static_cast<size_t>(p)]);
    }
  }
  EXPECT_TRUE(opt.CheckInvariants());
  EXPECT_TRUE(scalar.CheckInvariants());
  // Cross-check the two trees exhaustively on small domains.
  if (capacity <= 512) {
    kernels::ScopedForceScalar force(true);
    for (int64_t p = 0; p < capacity; ++p) {
      ASSERT_EQ(opt.CumulativeSum(p), scalar.CumulativeSum(p)) << "p=" << p;
    }
  }
}

TEST(BcTreeDifferential, SparseAcrossFanoutsAndCapacities) {
  int seed = 100;
  for (int fanout : {2, 3, 5, 7, 8, 15, 16}) {
    for (int64_t capacity : {int64_t{1}, int64_t{7}, int64_t{64},
                             int64_t{1000}, int64_t{4096}}) {
      DriveTreeDifferential(capacity, fanout, capacity < 100 ? 200 : 400,
                            static_cast<uint64_t>(seed++));
    }
  }
}

TEST(BcTreeDifferential, SparseLazySubtreesStayLazyAndExact) {
  // A huge, almost-empty tree: only scattered clusters materialize. The
  // optimized descent must early-out through the same absent children the
  // scalar reference does.
  const int64_t capacity = int64_t{1} << 30;
  BcTree tree(capacity, 8);
  std::map<int64_t, int64_t> sparse_oracle;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> pos(0, capacity - 1);
  std::vector<int64_t> touched;
  for (int i = 0; i < 64; ++i) {
    const int64_t p = pos(rng);
    const int64_t d = (i % 13) - 6;
    tree.Add(p, d);
    sparse_oracle[p] += d;
    touched.push_back(p);
  }
  tree.Add(0, 5);
  sparse_oracle[0] += 5;
  tree.Add(capacity - 1, -3);
  sparse_oracle[capacity - 1] += -3;
  touched.push_back(0);
  touched.push_back(capacity - 1);

  auto oracle_prefix = [&](int64_t p) {
    int64_t sum = 0;
    for (const auto& [k, v] : sparse_oracle) {
      if (k <= p) sum += v;
    }
    return sum;
  };
  for (int64_t p : touched) {
    const int64_t expected = oracle_prefix(p);
    EXPECT_EQ(tree.CumulativeSum(p), expected);
    if (p > 0) {
      EXPECT_EQ(tree.CumulativeSum(p - 1), oracle_prefix(p - 1));
    }
    kernels::ScopedForceScalar force(true);
    EXPECT_EQ(tree.CumulativeSum(p), expected);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeDifferential, BuildFromMatchesIncremental) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int64_t> values(-100, 100);
  for (int fanout : {3, 8, 16}) {
    for (int64_t capacity : {int64_t{17}, int64_t{256}, int64_t{1000}}) {
      std::vector<int64_t> dense(static_cast<size_t>(capacity));
      for (auto& v : dense) v = values(rng);
      BcTree built(capacity, fanout);
      built.BuildFrom(dense);
      BcTree incremental(capacity, fanout);
      for (int64_t i = 0; i < capacity; ++i) {
        incremental.Add(i, dense[static_cast<size_t>(i)]);
      }
      for (int64_t p = 0; p < capacity; ++p) {
        ASSERT_EQ(built.CumulativeSum(p), incremental.CumulativeSum(p))
            << "fanout=" << fanout << " capacity=" << capacity << " p=" << p;
      }
      EXPECT_TRUE(built.CheckInvariants());
    }
  }
}

// ---------------------------------------------------------------------------
// Fenwick bulk build.

TEST(FenwickBuildFrom, MatchesIncrementalAdds) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int64_t> values(-100, 100);
  for (int64_t capacity : {int64_t{1}, int64_t{2}, int64_t{63}, int64_t{64},
                           int64_t{1000}}) {
    std::vector<int64_t> dense(static_cast<size_t>(capacity));
    for (auto& v : dense) v = values(rng);
    FenwickTree built(capacity);
    built.BuildFrom(dense);
    FenwickTree incremental(capacity);
    for (int64_t i = 0; i < capacity; ++i) {
      incremental.Add(i, dense[static_cast<size_t>(i)]);
    }
    for (int64_t p = 0; p < capacity; ++p) {
      ASSERT_EQ(built.CumulativeSum(p), incremental.CumulativeSum(p))
          << "capacity=" << capacity << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// DdcCore tree-ordered batches (AddBatch, PrefixSumBatch) vs forced-scalar
// single-query descents.

void DriveCoreDifferential(int dims, int64_t side, const DdcOptions& options,
                           uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "dims=" << dims << " side=" << side
                                  << " elide=" << options.elide_levels
                                  << " seed=" << seed);
  const Shape shape = Shape::Cube(dims, side);
  OwnedDdcCore core(dims, side, options);
  NaiveCube naive(shape);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> coord(0, side - 1);
  std::uniform_int_distribution<int64_t> delta(-20, 20);

  auto random_cell = [&]() {
    Cell cell(static_cast<size_t>(dims));
    for (int i = 0; i < dims; ++i) cell[static_cast<size_t>(i)] = coord(rng);
    return cell;
  };

  for (int round = 0; round < 6; ++round) {
    // Batched update (with duplicates: each must land as its own Add).
    const size_t batch = 64;
    std::vector<Cell> cells;
    std::vector<int64_t> deltas;
    for (size_t i = 0; i < batch; ++i) {
      Cell cell = i % 5 == 4 && !cells.empty() ? cells.back() : random_cell();
      const int64_t d = delta(rng);
      naive.Add(cell, d);
      cells.push_back(std::move(cell));
      deltas.push_back(d);
    }
    core.AddBatch(cells, deltas);

    // Batched query vs the scalar per-query reference vs the naive oracle.
    std::vector<Cell> queries;
    for (size_t i = 0; i < batch; ++i) queries.push_back(random_cell());
    for (size_t i = 0; i < batch; ++i) queries.push_back(cells[i]);
    std::vector<int64_t> got(queries.size(), 0);
    core.PrefixSumBatch(queries, got);
    for (size_t i = 0; i < queries.size(); ++i) {
      const int64_t expected = naive.PrefixSum(queries[i]);
      ASSERT_EQ(got[i], expected) << "round=" << round << " i=" << i;
      kernels::ScopedForceScalar force(true);
      ASSERT_EQ(core.PrefixSum(queries[i]), expected);
    }
  }
}

TEST(DdcCoreDifferential, BatchedWalksAcrossDimsAndElision) {
  DdcOptions plain;
  DriveCoreDifferential(1, 64, plain, 41);
  DriveCoreDifferential(2, 32, plain, 42);
  DriveCoreDifferential(3, 16, plain, 43);

  // Elided bottom levels: the descent tail is the RawPrefix leaf-block sum
  // (Section 4.4) — the vectorized inner-run kernel vs the scalar odometer.
  DdcOptions elided;
  elided.elide_levels = 2;
  DriveCoreDifferential(2, 64, elided, 44);
  DriveCoreDifferential(3, 16, elided, 45);
}

TEST(DdcCoreDifferential, ReRootGrowthStaysExact) {
  // Adds that overflow the current domain force DynamicDataCube re-roots
  // (domain doubling + bulk rebuild through the kernel-built trees); the
  // grown cube must agree with an oracle and with its forced-scalar twin.
  DynamicDataCube opt(2, 8);
  DynamicDataCube scalar(2, 8);
  NaiveCube naive(Shape::Cube(2, 128));
  std::mt19937_64 rng(57);
  std::uniform_int_distribution<int64_t> coord(0, 127);
  std::uniform_int_distribution<int64_t> delta(-9, 9);
  std::vector<Cell> added;
  for (int i = 0; i < 400; ++i) {
    // Ramp outward so growth happens repeatedly, not just once. (Add grows
    // the domain to contain its cell; PrefixSum requires in-domain probes,
    // so probe only cells that have been added.)
    const int64_t limit = 7 + i;
    Cell cell = {std::min(coord(rng), limit), std::min(coord(rng), limit)};
    const int64_t d = delta(rng);
    naive.Add(cell, d);
    opt.Add(cell, d);
    {
      kernels::ScopedForceScalar force(true);
      scalar.Add(cell, d);
    }
    added.push_back(std::move(cell));
    if (i % 50 == 49) {
      for (int q = 0; q < 32; ++q) {
        const Cell& probe =
            added[static_cast<size_t>(rng() % added.size())];
        const int64_t expected = naive.PrefixSum(probe);
        ASSERT_EQ(opt.PrefixSum(probe), expected) << "i=" << i;
        kernels::ScopedForceScalar force(true);
        ASSERT_EQ(scalar.PrefixSum(probe), expected) << "i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Node-slab alignment contract.

TEST(ArenaAlignment, BcTreeNodeSumsNeverStraddleCacheLines) {
  // The BcTree constructor DCHECKs the per-node containment invariant on
  // every allocation; driving trees across fanouts exercises it. (In
  // release builds this still verifies behaviour via the invariant check.)
  for (int fanout : {2, 3, 7, 8, 15, 16}) {
    BcTree tree(2048, fanout);
    for (int64_t i = 0; i < 2048; i += 3) tree.Add(i, i % 17);
    EXPECT_TRUE(tree.CheckInvariants()) << "fanout=" << fanout;
  }
}

// ---------------------------------------------------------------------------
// Arena stability across batched updates (the ApplyBatch path).

TEST(BatchReuse, RepeatedBatchesDoNotGrowArena) {
  OwnedDdcCore core(2, 64, DdcOptions{});
  std::mt19937_64 rng(71);
  std::uniform_int_distribution<int64_t> coord(0, 63);
  std::uniform_int_distribution<int64_t> delta(-9, 9);
  const size_t batch = 256;
  auto apply_batch = [&] {
    std::vector<Cell> cells;
    std::vector<int64_t> deltas;
    for (size_t i = 0; i < batch; ++i) {
      cells.push_back({coord(rng), coord(rng)});
      deltas.push_back(delta(rng));
    }
    core.AddBatch(cells, deltas);
    std::vector<int64_t> out(cells.size(), 0);
    core.PrefixSumBatch(cells, out);
  };

  // Materialize the full tree first (touch every cell), then run a few
  // batches: afterwards no batch can have anything left to materialize.
  for (int64_t x = 0; x < 64; ++x) {
    for (int64_t y = 0; y < 64; ++y) core.Add({x, y}, 1);
  }
  for (int round = 0; round < 8; ++round) apply_batch();
  const size_t arena_bytes = core.arena()->bytes_used();

  // Steady state: on a fully materialized 64x64 tree, same-size batches
  // must leave the arena byte-stable.
  for (int round = 8; round < 16; ++round) apply_batch();
  EXPECT_EQ(core.arena()->bytes_used(), arena_bytes);
}

}  // namespace
}  // namespace ddc
