#include "ddc/face_store.h"

#include <vector>

#include "bctree/bc_tree.h"
#include "bctree/fenwick_tree.h"
#include "common/check.h"
#include "ddc/ddc_core.h"

namespace ddc {

void FaceStore::Init(Arena* arena, int transverse_dims, int64_t side,
                     const DdcOptions& options, OpCounters* counters) {
  DDC_CHECK(transverse_dims >= 1);
  DDC_CHECK(side >= 2);
  DDC_DCHECK(bc_ == nullptr && fenwick_ == nullptr && nested_ == nullptr);
  if (transverse_dims == 1) {
    // The Section 4.1 base case: individual row sums in a B_c tree (or a
    // Fenwick tree under the ablation option).
    if (options.use_fenwick) {
      fenwick_ = arena->Create<FenwickTree>(side);
      fenwick_->set_counters(counters);
    } else {
      bc_ = arena->Create<BcTree>(
          side, options.bc_fanout, arena,
          options.bc_dense ? BcLayout::kDense : BcLayout::kSparse);
      bc_->set_counters(counters);
    }
    return;
  }
  // Section 4.2's secondary trees: a nested (d-1)-dimensional cube sharing
  // the owning cube's arena.
  nested_ = arena->Create<DdcCore>(transverse_dims, side, options, counters,
                                   arena);
}

FaceStore::Owned FaceStore::Create(int transverse_dims, int64_t side,
                                   const DdcOptions& options,
                                   OpCounters* counters) {
  Owned owned;
  owned.arena = std::make_unique<Arena>();
  owned.store = owned.arena->Create<FaceStore>();
  owned.store->Init(owned.arena.get(), transverse_dims, side, options,
                    counters);
  return owned;
}

void FaceStore::Add(Coord* y, int64_t delta) {
  if (nested_ != nullptr) {
    nested_->AddInPlace(y, delta);
    return;
  }
  AddLine(y[0], delta);
}

int64_t FaceStore::PrefixSum(Coord* y) const {
  if (nested_ != nullptr) return nested_->PrefixSumInPlace(y);
  return PrefixSumLine(y[0]);
}

void FaceStore::AddLine(Coord y, int64_t delta) {
  DDC_DCHECK(nested_ == nullptr);
  if (bc_ != nullptr) {
    bc_->Add(y, delta);
  } else {
    fenwick_->Add(y, delta);
  }
}

int64_t FaceStore::PrefixSumLine(Coord y) const {
  DDC_DCHECK(nested_ == nullptr);
  if (bc_ != nullptr) return bc_->CumulativeSum(y);
  return fenwick_->CumulativeSum(y);
}

int64_t FaceStore::StorageCells() const {
  if (nested_ != nullptr) return nested_->StorageCells();
  if (bc_ != nullptr) return bc_->StorageCells();
  return fenwick_->StorageCells();
}

void FaceStore::BuildFromDense(const MdArray<int64_t>& line_sums) {
  if (nested_ != nullptr) {
    nested_->BuildFromArray(line_sums);
    return;
  }
  DDC_CHECK(line_sums.dims() == 1);
  if (bc_ != nullptr) {
    std::vector<int64_t> values(
        static_cast<size_t>(line_sums.shape().extent(0)));
    for (int64_t i = 0; i < line_sums.size(); ++i) {
      values[static_cast<size_t>(i)] = line_sums.at_linear(i);
    }
    bc_->BuildFrom(values);
    return;
  }
  // Fenwick: one O(capacity) propagation pass instead of a loop of
  // O(log capacity) Adds.
  std::vector<int64_t> values(
      static_cast<size_t>(line_sums.shape().extent(0)));
  for (int64_t i = 0; i < line_sums.size(); ++i) {
    values[static_cast<size_t>(i)] = line_sums.at_linear(i);
  }
  fenwick_->BuildFrom(values);
}

}  // namespace ddc
