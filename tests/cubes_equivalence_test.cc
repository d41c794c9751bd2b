// Integration suite: every range-sum structure in the library — and every
// layer that composes over one behind the same CubeInterface (the
// lock-guarded facades and the query-result cache) — must give identical
// answers to the naive reference on randomized interleaved update/query
// traces, across dimensionalities, sizes, workload classes and seeds. This
// is the library's master correctness gate.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "cache/cached_cube.h"
#include "common/cube_interface.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

enum class Kind {
  kPrefixSum,
  kRelativePrefixSum,
  kBasicDdc,
  kDdc,
  kDdcElided,
  kDdcFenwick,
  kSharded,
  kSingleShard,  // The coarse configuration.
  kCachedDdc,
  kCachedSharded,
};

// Shards for kSharded / kCachedSharded: 3 does not divide the power-of-two
// sides, so the slabs are uneven and wrap around the axis.
constexpr int kShards = 3;

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kPrefixSum:
      return "PrefixSum";
    case Kind::kRelativePrefixSum:
      return "RelativePrefixSum";
    case Kind::kBasicDdc:
      return "BasicDdc";
    case Kind::kDdc:
      return "Ddc";
    case Kind::kDdcElided:
      return "DdcElided";
    case Kind::kDdcFenwick:
      return "DdcFenwick";
    case Kind::kSharded:
      return "Sharded";
    case Kind::kSingleShard:
      return "SingleShard";
    case Kind::kCachedDdc:
      return "CachedDdc";
    case Kind::kCachedSharded:
      return "CachedSharded";
  }
  return "?";
}

// The cached kinds wrap a borrowed backing cube, returned in *backing; the
// caller keeps it alive for as long as the returned cube.
std::unique_ptr<CubeInterface> MakeCube(
    Kind kind, int dims, int64_t side,
    std::unique_ptr<CubeInterface>* backing) {
  switch (kind) {
    case Kind::kPrefixSum:
      return std::make_unique<PrefixSumCube>(Shape::Cube(dims, side));
    case Kind::kRelativePrefixSum:
      return std::make_unique<RelativePrefixSumCube>(Shape::Cube(dims, side));
    case Kind::kBasicDdc:
      return std::make_unique<BasicDdc>(dims, side);
    case Kind::kDdc:
      return std::make_unique<DynamicDataCube>(dims, side);
    case Kind::kDdcElided: {
      DdcOptions options;
      options.elide_levels = 2;
      return std::make_unique<DynamicDataCube>(dims, side, options);
    }
    case Kind::kDdcFenwick: {
      DdcOptions options;
      options.use_fenwick = true;
      return std::make_unique<DynamicDataCube>(dims, side, options);
    }
    case Kind::kSharded:
      return std::make_unique<ShardedCube>(dims, side, kShards);
    case Kind::kSingleShard:
      return std::make_unique<ShardedCube>(dims, side, 1);
    case Kind::kCachedDdc:
      *backing = std::make_unique<DynamicDataCube>(dims, side);
      return std::make_unique<CachedCube>(backing->get());
    case Kind::kCachedSharded:
      *backing = std::make_unique<ShardedCube>(dims, side, kShards);
      return std::make_unique<CachedCube>(backing->get());
  }
  return nullptr;
}

enum class WorkloadKind { kUniform, kZipf, kClustered, kBoundary };

std::string WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kUniform:
      return "Uniform";
    case WorkloadKind::kZipf:
      return "Zipf";
    case WorkloadKind::kClustered:
      return "Clustered";
    case WorkloadKind::kBoundary:
      return "Boundary";
  }
  return "?";
}

struct EquivalenceParam {
  Kind kind;
  int dims;
  int64_t side;
  WorkloadKind workload;
  uint64_t seed;
};

std::string ParamName(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  const EquivalenceParam& p = info.param;
  return KindName(p.kind) + "_d" + std::to_string(p.dims) + "_n" +
         std::to_string(p.side) + "_" + WorkloadName(p.workload) + "_s" +
         std::to_string(p.seed);
}

class CubesEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(CubesEquivalenceTest, MatchesNaiveOnInterleavedTrace) {
  const EquivalenceParam p = GetParam();
  const Shape shape = Shape::Cube(p.dims, p.side);
  NaiveCube naive(shape);
  std::unique_ptr<CubeInterface> backing;
  std::unique_ptr<CubeInterface> cube =
      MakeCube(p.kind, p.dims, p.side, &backing);
  ASSERT_NE(cube, nullptr);

  WorkloadGenerator gen(shape, p.seed);
  ClusteredGenerator clustered(shape, 2, 0.05, p.seed + 1);

  auto next_cell = [&]() -> Cell {
    switch (p.workload) {
      case WorkloadKind::kUniform:
        return gen.UniformCell();
      case WorkloadKind::kZipf:
        return gen.ZipfCell(1.5);
      case WorkloadKind::kClustered:
        return clustered.NextCell();
      case WorkloadKind::kBoundary: {
        // Exercise corners and edges: snap a uniform cell to extremes.
        Cell c = gen.UniformCell();
        for (size_t i = 0; i < c.size(); ++i) {
          const int64_t roll = gen.Value(0, 3);
          if (roll == 0) c[i] = 0;
          if (roll == 1) c[i] = p.side - 1;
        }
        return c;
      }
    }
    return gen.UniformCell();
  };

  const int kOps = 120;
  for (int i = 0; i < kOps; ++i) {
    const Cell cell = next_cell();
    const int64_t delta = gen.Value(-9, 9);
    if (gen.Value(0, 4) == 0) {
      const int64_t value = gen.Value(-20, 20);
      naive.Set(cell, value);
      cube->Set(cell, value);
    } else {
      naive.Add(cell, delta);
      cube->Add(cell, delta);
    }

    const Cell probe = next_cell();
    ASSERT_EQ(cube->PrefixSum(probe), naive.PrefixSum(probe))
        << "prefix at " << CellToString(probe) << " after op " << i;
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube->RangeSum(box), naive.RangeSum(box))
        << "range " << box.ToString() << " after op " << i;
    ASSERT_EQ(cube->Get(cell), naive.Get(cell));
  }

  // Final exhaustive prefix check on small domains.
  if (shape.num_cells() <= 4096) {
    Cell c(static_cast<size_t>(p.dims), 0);
    do {
      ASSERT_EQ(cube->PrefixSum(c), naive.PrefixSum(c)) << CellToString(c);
    } while (shape.NextCell(&c));
  }
}

std::vector<EquivalenceParam> AllParams() {
  std::vector<EquivalenceParam> params;
  // New kinds go at the end: the seeds are numbered in this order.
  const Kind kinds[] = {Kind::kPrefixSum,   Kind::kRelativePrefixSum,
                        Kind::kBasicDdc,    Kind::kDdc,
                        Kind::kDdcElided,   Kind::kDdcFenwick,
                        Kind::kSharded,     Kind::kSingleShard,
                        Kind::kCachedDdc,   Kind::kCachedSharded};
  const WorkloadKind workloads[] = {
      WorkloadKind::kUniform, WorkloadKind::kZipf, WorkloadKind::kClustered,
      WorkloadKind::kBoundary};
  struct Geometry {
    int dims;
    int64_t side;
  };
  const Geometry geometries[] = {{1, 16}, {2, 2},  {2, 16}, {2, 32},
                                 {2, 64}, {3, 8},  {3, 16}, {4, 4}};
  uint64_t seed = 1;
  for (Kind kind : kinds) {
    for (const Geometry& g : geometries) {
      for (WorkloadKind w : workloads) {
        params.push_back(EquivalenceParam{kind, g.dims, g.side, w, seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllStructures, CubesEquivalenceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

}  // namespace
}  // namespace ddc
