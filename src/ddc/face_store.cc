#include "ddc/face_store.h"

#include <vector>

#include "bctree/fenwick_tree.h"
#include "common/bit_util.h"
#include "common/check.h"
#include "ddc/ddc_core.h"

namespace ddc {

namespace {

// The dense 1-D line-sum array as a plain vector, for the 1-D bulk loaders.
std::vector<int64_t> LineValues(const MdArray<int64_t>& line_sums) {
  DDC_CHECK(line_sums.dims() == 1);
  std::vector<int64_t> values(
      static_cast<size_t>(line_sums.shape().extent(0)));
  for (int64_t i = 0; i < line_sums.size(); ++i) {
    values[static_cast<size_t>(i)] = line_sums.at_linear(i);
  }
  return values;
}

}  // namespace

FaceStore::Env FaceStore::MakeEnv(int transverse_dims, int64_t side,
                                  const DdcOptions& options, Arena* arena) {
  Env env;
  env.transverse_dims = transverse_dims;
  env.side = side;
  env.arena = arena;
  if (transverse_dims >= 2) {
    // Section 4.2's secondary trees: nested (d-1)-dimensional cubes. A face
    // no larger than a leaf block would be a cube that is one raw slab, so
    // it is that slab.
    const bool leaf = side <= (int64_t{1} << (options.elide_levels + 1));
    env.kind = leaf ? Kind::kLeaf : Kind::kNested;
    env.leaf_shift = FloorLog2(side);
  } else if (options.use_fenwick) {
    env.kind = Kind::kFenwick;
  } else {
    // The Section 4.1 base case: individual row sums in a B_c tree. (A 1-D
    // cube's boxes have no faces; its Env is never used.)
    env.kind = Kind::kBcTree;
    if (transverse_dims == 1) {
      env.bc = BcShape::Of(side, options.bc_fanout);
    }
  }
  return env;
}

void FaceStore::Init(const Env& env, const DdcOptions& options) {
  DDC_CHECK(env.transverse_dims >= 1);
  DDC_CHECK(env.side >= 2);
  switch (env.kind) {
    case Kind::kBcTree:
      return;
    case Kind::kLeaf:
      leaf_ = nullptr;
      return;
    case Kind::kFenwick:
      fenwick_ = env.arena->Create<FenwickTree>(env.side);
      return;
    case Kind::kNested:
      // Shares the owning cube's arena; trivially destructible, so it
      // registers no cleanup.
      nested_ = env.arena->Create<DdcCore>(env.transverse_dims, env.side,
                                           options, env.arena);
      return;
  }
}

FaceStore::Owned FaceStore::Create(int transverse_dims, int64_t side,
                                   const DdcOptions& options) {
  DDC_CHECK(options.use_fenwick || options.bc_fanout >= 2);
  Owned owned;
  owned.arena_ = std::make_unique<Arena>();
  owned.env_ = MakeEnv(transverse_dims, side, options, owned.arena_.get());
  owned.store_ = owned.arena_->Create<FaceStore>();
  owned.store_->Init(owned.env_, options);
  return owned;
}

void FaceStore::Add(const Env& env, Coord* y, int64_t delta) {
  switch (env.kind) {
    case Kind::kNested:
      nested_->AddInPlace(y, delta);
      return;
    case Kind::kLeaf:
      // One slab visit and one value written: the counts of the one-leaf
      // nested core this face stands in for.
      if (delta == 0) return;
      if (leaf_ == nullptr) {
        leaf_ = DdcCore::NewLeaf(env.arena, env.transverse_dims,
                                 env.leaf_shift);
      }
      DdcCore::VisitNode(nullptr, leaf_);
      leaf_[DdcCore::LeafIndex(y, env.transverse_dims, env.leaf_shift)] +=
          delta;
      CountValuesWritten(1);
      return;
    default:
      AddLine(env, y[0], delta);
  }
}

int64_t FaceStore::PrefixSum(const Env& env, Coord* y) const {
  switch (env.kind) {
    case Kind::kNested:
      return nested_->PrefixSumInPlace(y);
    case Kind::kLeaf:
      if (leaf_ == nullptr) return 0;
      return DdcCore::RawPrefix(leaf_, env.transverse_dims, env.leaf_shift, y,
                                nullptr);
    default:
      return PrefixSumLine(env, y[0]);
  }
}

void FaceStore::AddLine(const Env& env, Coord y, int64_t delta) {
  DDC_DCHECK(env.kind == Kind::kBcTree || env.kind == Kind::kFenwick);
  if (env.kind == Kind::kBcTree) {
    bc_.Add(env.bc, env.arena, y, delta);
  } else {
    fenwick_->Add(y, delta);
  }
}

int64_t FaceStore::PrefixSumLine(const Env& env, Coord y) const {
  DDC_DCHECK(env.kind == Kind::kBcTree || env.kind == Kind::kFenwick);
  if (env.kind == Kind::kBcTree) {
    return bc_.CumulativeSum(env.bc, y);
  }
  return fenwick_->CumulativeSum(y);
}

int64_t FaceStore::StorageCells(const Env& env) const {
  switch (env.kind) {
    case Kind::kBcTree:
      return bc_.StorageCells(env.bc);
    case Kind::kFenwick:
      return fenwick_->StorageCells();
    case Kind::kNested:
      return nested_->StorageCells();
    case Kind::kLeaf:
      if (leaf_ == nullptr) return 0;
      return int64_t{1} << (env.leaf_shift * env.transverse_dims);
  }
  return 0;
}

void FaceStore::CountFaces(const Env& env, DdcStats* stats) const {
  switch (env.kind) {
    case Kind::kBcTree:
      ++stats->bc_faces;
      return;
    case Kind::kFenwick:
      return;
    case Kind::kLeaf:
      ++stats->leaf_faces;
      return;
    case Kind::kNested: {
      const DdcStats inner = nested_->Stats();
      stats->nested_cores += 1 + inner.nested_cores;
      stats->bc_faces += inner.bc_faces;
      stats->leaf_faces += inner.leaf_faces;
      return;
    }
  }
}

void FaceStore::BuildFromDense(const Env& env,
                               const MdArray<int64_t>& line_sums) {
  switch (env.kind) {
    case Kind::kBcTree:
      bc_.BuildFrom(env.bc, env.arena, LineValues(line_sums));
      return;
    case Kind::kFenwick:
      // One O(capacity) propagation pass instead of a loop of
      // O(log capacity) Adds.
      fenwick_->BuildFrom(LineValues(line_sums));
      return;
    case Kind::kNested:
      nested_->BuildFromArray(line_sums);
      return;
    case Kind::kLeaf:
      DDC_CHECK(leaf_ == nullptr);
      leaf_ = DdcCore::LeafFromArray(env.arena, line_sums);
      return;
  }
}

}  // namespace ddc
