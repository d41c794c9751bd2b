#include "bctree/bc_tree.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/kernels.h"
#include "common/op_counter.h"

namespace ddc {

namespace {

// A node is an opaque handle to one aligned arena slab:
//   [ f x int64_t sums ][ f x Node* children ]   (interior)
//   [ f x int64_t sums ]                         (leaf)
// Whether a node is a leaf is implied by its span (span == fanout), so no
// flag is stored and the two shapes share one handle type.
struct Node;

int64_t* Sums(Node* node) { return reinterpret_cast<int64_t*>(node); }
const int64_t* Sums(const Node* node) {
  return reinterpret_cast<const int64_t*>(node);
}
Node** Children(Node* node, int fanout) {
  return reinterpret_cast<Node**>(reinterpret_cast<int64_t*>(node) + fanout);
}
Node* const* Children(const Node* node, int fanout) {
  return reinterpret_cast<Node* const*>(
      reinterpret_cast<const int64_t*>(node) + fanout);
}

// Smallest power-of-two alignment that keeps a sum array of `sums_bytes`
// inside one cache line (or line-aligned when it fills one or more whole
// lines). 16 is the floor so small-fanout slabs stay naturally aligned for
// their pointer halves too.
size_t NodeSlabAlign(size_t sums_bytes) {
  size_t align = 16;
  while (align < sums_bytes && align < Arena::kMaxAlign) align <<= 1;
  return align;
}

// Allocates a node slab (leaves carry no child array), zeroed, aligned so
// the sum array never straddles a cache line.
Node* NewNode(const BcShape& s, Arena* arena, bool is_leaf) {
  const size_t f = static_cast<size_t>(s.fanout);
  const size_t sums_bytes = f * sizeof(int64_t);
  const size_t bytes = is_leaf ? sums_bytes : sums_bytes + f * sizeof(Node*);
  void* slab = arena->Allocate(bytes, NodeSlabAlign(sums_bytes));
  std::memset(slab, 0, bytes);
  // The cache-line contract: a node's sum array either fits entirely inside
  // one 64-byte line or starts exactly on a line boundary.
  DDC_DCHECK(sums_bytes >= 64
                 ? reinterpret_cast<uintptr_t>(slab) % 64 == 0
                 : reinterpret_cast<uintptr_t>(slab) % 64 + sums_bytes <= 64);
  return static_cast<Node*>(slab);
}

// ---------------------------------------------------------------------------
// Bulk build.

// Builds the subtree covering values[lo, lo+span); returns nullptr when the
// range is entirely zero. Sets *subtree_total.
Node* BuildRange(const BcShape& s, Arena* arena,
                 const std::vector<int64_t>& values, int64_t lo, int64_t span,
                 int64_t* subtree_total) {
  *subtree_total = 0;
  const int64_t limit = static_cast<int64_t>(values.size());
  if (lo >= limit) return nullptr;
  if (span == s.fanout) {
    // Leaf: materialize only if some entry is nonzero. The values are
    // contiguous, so total and occupancy are two vectorizable passes.
    const int64_t count = std::min<int64_t>(s.fanout, limit - lo);
    const int64_t* src = values.data() + lo;
    *subtree_total = kernels::Sum(src, static_cast<size_t>(count));
    int64_t any_bits = 0;
    for (int64_t i = 0; i < count; ++i) any_bits |= src[i];
    if (any_bits == 0) return nullptr;
    Node* node = NewNode(s, arena, /*is_leaf=*/true);
    std::memcpy(Sums(node), src, static_cast<size_t>(count) * sizeof(int64_t));
    return node;
  }

  // Interior: build the children first (into stack temporaries) so all-zero
  // subtrees never allocate arena memory.
  const int64_t child_span = span / s.fanout;
  std::vector<Node*> kids(static_cast<size_t>(s.fanout), nullptr);
  std::vector<int64_t> totals(static_cast<size_t>(s.fanout), 0);
  bool any_child = false;
  for (int64_t i = 0; i < s.fanout; ++i) {
    kids[static_cast<size_t>(i)] =
        BuildRange(s, arena, values, lo + i * child_span, child_span,
                   &totals[static_cast<size_t>(i)]);
    any_child |= (kids[static_cast<size_t>(i)] != nullptr);
    *subtree_total += totals[static_cast<size_t>(i)];
  }
  if (!any_child) return nullptr;
  Node* node = NewNode(s, arena, /*is_leaf=*/false);
  std::memcpy(Sums(node), totals.data(),
              static_cast<size_t>(s.fanout) * sizeof(int64_t));
  std::memcpy(Children(node, s.fanout), kids.data(),
              static_cast<size_t>(s.fanout) * sizeof(Node*));
  return node;
}

// ---------------------------------------------------------------------------
// Update descents. Each starts at an existing root.

// Optimized descent, specialized on whether the fanout supports shift/mask
// child addressing.
template <bool kPow2>
void AddFast(const BcShape& s, Arena* arena, Node* node, int64_t index,
             int64_t delta) {
  int64_t offset = index;
  int shift = kPow2 ? s.log2_fanout * (s.height - 1) : 0;
  int64_t child_span = s.root_span / s.fanout;
  for (int level = s.height; level > 1; --level) {
    CountNodeVisit();
    size_t child;
    if constexpr (kPow2) {
      child = static_cast<size_t>(offset >> shift);
      offset &= (int64_t{1} << shift) - 1;
      shift -= s.log2_fanout;
    } else {
      child = static_cast<size_t>(offset / child_span);
      offset %= child_span;
      child_span /= s.fanout;
    }
    // One STS adjusted per visited node (the subtree containing the changed
    // cell), exactly as in the paper's bottom-up walkthrough.
    Sums(node)[child] += delta;
    CountValuesWritten(1);
    Node*& slot = Children(node, s.fanout)[child];
    if (slot == nullptr) slot = NewNode(s, arena, /*is_leaf=*/level == 2);
    node = slot;
  }
  CountNodeVisit();
  Sums(node)[static_cast<size_t>(offset)] += delta;
  CountValuesWritten(1);
}

// The pre-optimization scalar reference descent (verbatim seed shape:
// per-level div/mod). Reached via kernels::ForceScalar; bit-exact with the
// fast path by construction, which kernel_layout_test verifies.
void AddScalarRef(const BcShape& s, Arena* arena, Node* node, int64_t index,
                  int64_t delta) {
  int64_t span = s.root_span;
  int64_t offset = index;
  while (span > s.fanout) {
    CountNodeVisit();
    const int64_t child_span = span / s.fanout;
    const size_t child = static_cast<size_t>(offset / child_span);
    Sums(node)[child] += delta;
    CountValuesWritten(1);
    Node*& slot = Children(node, s.fanout)[child];
    if (slot == nullptr) {
      slot = NewNode(s, arena, /*is_leaf=*/child_span == s.fanout);
    }
    node = slot;
    offset %= child_span;
    span = child_span;
  }
  CountNodeVisit();
  Sums(node)[static_cast<size_t>(offset)] += delta;
  CountValuesWritten(1);
}

// ---------------------------------------------------------------------------
// Query descents.

template <bool kPow2>
int64_t CumulativeSumFast(const BcShape& s, const Node* node,
                          int64_t index) {
  int64_t offset = index;
  int shift = kPow2 ? s.log2_fanout * (s.height - 1) : 0;
  int64_t child_span = s.root_span / s.fanout;
  int64_t sum = 0;
  const size_t f = static_cast<size_t>(s.fanout);
  for (int level = s.height; level > 1; --level) {
    CountNodeVisit();
    size_t child;
    if constexpr (kPow2) {
      child = static_cast<size_t>(offset >> shift);
      offset &= (int64_t{1} << shift) - 1;
      shift -= s.log2_fanout;
    } else {
      child = static_cast<size_t>(offset / child_span);
      offset %= child_span;
      child_span /= s.fanout;
    }
    // Every STS preceding the descended branch, as one predicated line scan.
    sum += kernels::MaskedPrefixSum(Sums(node), f, child);
    CountValuesRead(static_cast<int64_t>(child));
    const Node* next = Children(node, s.fanout)[child];
    if (next == nullptr) return sum;  // Unmaterialized subtree: all zero.
    node = next;
  }
  CountNodeVisit();
  sum += kernels::MaskedPrefixSum(Sums(node), f,
                                  static_cast<size_t>(offset) + 1);
  CountValuesRead(offset + 1);
  return sum;
}

// Scalar reference of CumulativeSumFast (seed shape: per-level div/mod,
// early-terminating per-entry STS loop).
int64_t CumulativeSumScalarRef(const BcShape& s, const Node* node,
                               int64_t index) {
  int64_t span = s.root_span;
  int64_t offset = index;
  int64_t sum = 0;
  while (true) {
    CountNodeVisit();
    if (span == s.fanout) {
      // Leaf: sum of the individual row values up to and including `offset`.
      for (int64_t i = 0; i <= offset; ++i) {
        sum += Sums(node)[static_cast<size_t>(i)];
      }
      CountValuesRead(offset + 1);
      return sum;
    }
    const int64_t child_span = span / s.fanout;
    const size_t child = static_cast<size_t>(offset / child_span);
    // Add every STS preceding the branch we descend.
    for (size_t i = 0; i < child; ++i) {
      sum += Sums(node)[i];
    }
    CountValuesRead(static_cast<int64_t>(child));
    if (Children(node, s.fanout)[child] == nullptr) {
      return sum;  // Unmaterialized subtree: all zero.
    }
    node = Children(node, s.fanout)[child];
    offset %= child_span;
    span = child_span;
  }
}

// ---------------------------------------------------------------------------
// Cold walks.

int64_t CountNodes(const BcShape& s, const Node* node, int64_t span) {
  if (span == s.fanout) return 1;
  const int64_t child_span = span / s.fanout;
  int64_t count = 1;
  for (int64_t i = 0; i < s.fanout; ++i) {
    const Node* child = Children(node, s.fanout)[static_cast<size_t>(i)];
    if (child != nullptr) count += CountNodes(s, child, child_span);
  }
  return count;
}

bool CheckNode(const BcShape& s, const Node* node, int64_t span) {
  if (span == s.fanout) return true;  // Leaf: nothing below to cross-check.
  const int64_t child_span = span / s.fanout;
  const size_t f = static_cast<size_t>(s.fanout);
  for (size_t i = 0; i < f; ++i) {
    const Node* child = Children(node, s.fanout)[i];
    const int64_t sts = Sums(node)[i];
    if (child == nullptr) {
      if (sts != 0) return false;
      continue;
    }
    if (kernels::Sum(Sums(child), f) != sts) return false;
    if (!CheckNode(s, child, child_span)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// BcShape.

BcShape BcShape::Of(int64_t capacity, int fanout) {
  DDC_DCHECK(capacity >= 1 && fanout >= 2);
  BcShape s;
  s.capacity = capacity;
  s.fanout = fanout;
  if (IsPowerOfTwo(fanout)) {
    // The smallest height with fanout^height >= capacity: ceil(bits / log2 f)
    // for capacity <= 2^bits, and at least one level.
    s.log2_fanout = FloorLog2(fanout);
    const int bits = capacity <= 1 ? 0 : FloorLog2(capacity - 1) + 1;
    s.height = bits <= s.log2_fanout
                   ? 1
                   : (bits + s.log2_fanout - 1) / s.log2_fanout;
    s.root_span = int64_t{1} << (s.log2_fanout * s.height);
    return s;
  }
  s.log2_fanout = -1;
  s.height = 1;
  s.root_span = fanout;
  while (s.root_span < capacity) {
    s.root_span *= fanout;
    ++s.height;
  }
  return s;
}

// ---------------------------------------------------------------------------
// BcFace.

// The root slot doubles as an inline face's entry 0.
static_assert(sizeof(intptr_t) == sizeof(int64_t));
static_assert(sizeof(BcFace) == 16);
static_assert(std::is_trivially_destructible_v<BcFace>);

void BcFace::Add(const BcShape& shape, Arena* arena, int64_t index,
                 int64_t delta) {
  DDC_CHECK(index >= 0 && index < shape.capacity);
  if (delta == 0) return;
  total_ += delta;
  if (shape.is_inline()) {
    // The face is its own leaf: entry 1 lives only in the total.
    CountNodeVisit();
    if (index == 0) slot_ += delta;
    CountValuesWritten(1);
    return;
  }
  if (slot_ == 0) {
    set_root(NewNode(shape, arena, /*is_leaf=*/shape.height == 1));
  }
  Node* root_node = root<Node>();
  if (kernels::UseScalar()) {
    AddScalarRef(shape, arena, root_node, index, delta);
  } else if (shape.log2_fanout > 0) {
    AddFast<true>(shape, arena, root_node, index, delta);
  } else {
    AddFast<false>(shape, arena, root_node, index, delta);
  }
}

int64_t BcFace::CumulativeSum(const BcShape& shape, int64_t index) const {
  DDC_CHECK(index >= 0 && index < shape.capacity);
  if (shape.is_inline()) {
    if (empty_inline()) return 0;
    CountNodeVisit();
    CountValuesRead(index + 1);
    return index == 0 ? slot_ : total_;
  }
  if (slot_ == 0) return 0;
  const Node* root_node = root<const Node>();
  if (kernels::UseScalar()) {
    return CumulativeSumScalarRef(shape, root_node, index);
  }
  if (shape.log2_fanout > 0) {
    return CumulativeSumFast<true>(shape, root_node, index);
  }
  return CumulativeSumFast<false>(shape, root_node, index);
}

int64_t BcFace::Value(const BcShape& shape, int64_t index) const {
  DDC_CHECK(index >= 0 && index < shape.capacity);
  if (shape.is_inline()) {
    if (empty_inline()) return 0;
    CountValuesRead(1);
    return index == 0 ? slot_ : total_ - slot_;
  }
  if (slot_ == 0) return 0;
  const int64_t f = shape.fanout;
  int64_t offset = index;
  int64_t child_span = shape.root_span / f;
  const Node* node = root<const Node>();
  for (int level = shape.height; level > 1; --level) {
    const size_t child = static_cast<size_t>(offset / child_span);
    node = Children(node, shape.fanout)[child];
    if (node == nullptr) return 0;
    offset %= child_span;
    child_span /= f;
  }
  CountValuesRead(1);
  return Sums(node)[static_cast<size_t>(offset)];
}

void BcFace::BuildFrom(const BcShape& shape, Arena* arena,
                       const std::vector<int64_t>& values) {
  DDC_CHECK(slot_ == 0 && total_ == 0);
  DDC_CHECK(static_cast<int64_t>(values.size()) <= shape.capacity);
  if (shape.is_inline()) {
    for (const int64_t v : values) total_ += v;
    if (!values.empty()) slot_ = values[0];
    return;
  }
  int64_t total = 0;
  set_root(BuildRange(shape, arena, values, 0, shape.root_span, &total));
  total_ = total;
}

int64_t BcFace::StorageCells(const BcShape& shape) const {
  if (shape.is_inline()) return empty_inline() ? 0 : shape.capacity;
  if (slot_ == 0) return 0;
  return CountNodes(shape, root<const Node>(), shape.root_span) * shape.fanout;
}

bool BcFace::CheckInvariants(const BcShape& shape) const {
  // An inline face of capacity 1 has no entry 1: its total is entry 0.
  if (shape.is_inline()) return shape.capacity == 2 || total_ == slot_;
  if (slot_ == 0) return total_ == 0;
  const Node* root_node = root<const Node>();
  if (kernels::Sum(Sums(root_node), static_cast<size_t>(shape.fanout)) !=
      total_) {
    return false;
  }
  return CheckNode(shape, root_node, shape.root_span);
}

// ---------------------------------------------------------------------------
// BcTree.

BcTree::BcTree(int64_t capacity, int fanout) {
  DDC_CHECK(capacity >= 1);
  DDC_CHECK(fanout >= 2);
  shape_ = BcShape::Of(capacity, fanout);
}

void BcTree::BuildFrom(const std::vector<int64_t>& values) {
  face_.BuildFrom(shape_, &arena_, values);
}

void BcTree::Add(int64_t index, int64_t delta) {
  face_.Add(shape_, &arena_, index, delta);
}

int64_t BcTree::CumulativeSum(int64_t index) const {
  return face_.CumulativeSum(shape_, index);
}

int64_t BcTree::Value(int64_t index) const {
  return face_.Value(shape_, index);
}

}  // namespace ddc
