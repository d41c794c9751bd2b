#include "bctree/fenwick_tree.h"

#include <algorithm>

#include "common/check.h"
#include "common/kernels.h"
#include "common/op_counter.h"

namespace ddc {

FenwickTree::FenwickTree(int64_t capacity)
    : capacity_(capacity), tree_(static_cast<size_t>(capacity + 1), 0) {
  DDC_CHECK(capacity_ >= 1);
}

void FenwickTree::BuildFrom(const std::vector<int64_t>& values) {
  DDC_CHECK(total_ == 0);
  DDC_CHECK(static_cast<int64_t>(values.size()) <= capacity_);
  total_ = kernels::Sum(values.data(), values.size());
  std::copy(values.begin(), values.end(), tree_.begin() + 1);
  // In-place upward propagation: after the pass, tree_[i] covers the
  // classic BIT range (i - lowbit(i), i].
  for (int64_t i = 1; i <= capacity_; ++i) {
    const int64_t parent = i + (i & (-i));
    if (parent <= capacity_) {
      tree_[static_cast<size_t>(parent)] += tree_[static_cast<size_t>(i)];
    }
  }
}

void FenwickTree::Add(int64_t index, int64_t delta) {
  DDC_CHECK(index >= 0 && index < capacity_);
  if (delta == 0) return;
  total_ += delta;
  for (int64_t i = index + 1; i <= capacity_; i += i & (-i)) {
    tree_[static_cast<size_t>(i)] += delta;
    CountValuesWritten(1);
  }
}

int64_t FenwickTree::CumulativeSum(int64_t index) const {
  DDC_CHECK(index >= 0 && index < capacity_);
  int64_t sum = 0;
  for (int64_t i = index + 1; i > 0; i -= i & (-i)) {
    sum += tree_[static_cast<size_t>(i)];
    CountValuesRead(1);
  }
  return sum;
}

int64_t FenwickTree::Value(int64_t index) const {
  const int64_t hi = CumulativeSum(index);
  return index == 0 ? hi : hi - CumulativeSum(index - 1);
}

}  // namespace ddc
