// The Cumulative B Tree (B_c tree) of Section 4.1.
//
// A B_c tree stores one set of overlay row-sum values. It modifies a
// standard b-tree in two ways (quoting the paper):
//
//  1. Keys are the *indices* of the row-sum cells, not their data values, so
//     leaves appear in the same order as the row-sum cells in the overlay
//     box. Leaves store the sum of each *individual* row; cumulative row
//     sums are generated on demand.
//  2. Interior nodes additionally maintain subtree sums (STS): for each
//     entry, the sum of the subtree reached through the branch left of the
//     entry. A cumulative query descends the tree adding every preceding STS
//     in each visited node (O(f log_f k)); an update adjusts at most one STS
//     per visited node (O(log_f k)).
//
// Because keys are the dense integers 0..capacity-1 known a priori, the tree
// shape is fixed by (capacity, fanout) and nodes are materialized lazily:
// subtrees that are entirely zero occupy no memory. This gives the sparse
// behaviour Section 5 relies on while keeping the paper's node layout
// (per-entry STS, data in the leaves, bottom-up update of one STS per level).
//
// Memory layout (cache-conscious, see DESIGN.md §13). A node is one arena
// slab: f subtree sums followed, for interior nodes, by f child pointers.
// The slab is aligned so the sum array never straddles a cache line — at the
// tuned default fanout 8 the sums are exactly one 64-byte line, so one
// descent level costs one line fill (plus one pointer line for interior
// nodes). Descents are branchless: power-of-two fanouts replace the
// per-level div/mod with shift/mask, and the per-entry STS compare loop is
// a predicated whole-line masked sum (kernels::MaskedPrefixSum). The
// pre-optimization scalar descent is retained verbatim and reachable via
// kernels::ForceScalar — it is the semantic contract the differential tests
// pin the optimized path against, bit-exactly.
//
// Layouts:
//  * kSparse (default): lazily materialized pointer tree, as in the paper.
//  * kDense: the whole conceptual tree as one flat 64-byte-aligned slab in
//    BFS (Eytzinger-style) order with implicit child addressing
//    (child(slot, c) = slot*f + 1 + c) — no child pointers at all, so a
//    descent is pure arithmetic over contiguous memory. Costs
//    (f^height - 1)/(f - 1) * f entries regardless of population, so it
//    suits dense a-priori key spaces (bulk-built faces), not the sparse
//    Section 5 regime.

#ifndef DDC_BCTREE_BC_TREE_H_
#define DDC_BCTREE_BC_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bctree/cumulative_store.h"
#include "common/arena.h"

namespace ddc {

// Node placement strategy; see the header comment.
enum class BcLayout { kSparse, kDense };

class BcTree final : public CumulativeStore1D {
 public:
  // Tuned on the bench_kernels fanout sweep (7/8/15/16): 8 sums * 8 bytes =
  // exactly one 64-byte cache line per descent level, which beat both the
  // shallower two-line fanout-16 tree and the odd fanouts that lose the
  // shift/mask addressing. See ddc_options.h for the recorded numbers.
  static constexpr int kDefaultFanout = 8;

  // Creates an all-zero tree holding `capacity` row sums. `fanout` is the
  // maximum number of children per node (>= 2). Nodes are allocated from
  // `arena` when given (not owned; must outlive the tree), otherwise from a
  // private arena.
  explicit BcTree(int64_t capacity, int fanout = kDefaultFanout,
                  Arena* arena = nullptr, BcLayout layout = BcLayout::kSparse);

  BcTree(const BcTree&) = delete;
  BcTree& operator=(const BcTree&) = delete;

  // Bulk-builds the tree bottom-up from `values` (one per index; shorter
  // vectors are zero-extended). The tree must be empty. Writes each stored
  // entry exactly once — O(capacity) instead of O(capacity log capacity)
  // repeated Adds — and (in the sparse layout) materializes only subtrees
  // with nonzero content. Subtree totals accumulate through the vectorized
  // block-sum kernel.
  void BuildFrom(const std::vector<int64_t>& values);

  void Add(int64_t index, int64_t delta) override;
  int64_t CumulativeSum(int64_t index) const override;
  int64_t Value(int64_t index) const override;
  int64_t TotalSum() const override { return total_; }
  int64_t capacity() const override { return capacity_; }
  int64_t StorageCells() const override { return allocated_entries_; }

  int fanout() const { return fanout_; }
  BcLayout layout() const { return layout_; }

  // Height of the (conceptual) tree: number of levels including the leaf
  // level; a single-leaf tree has height 1.
  int height() const { return height_; }

  // Verifies the STS invariant over all materialized nodes: every interior
  // entry equals the total of the child subtree it summarizes. Returns true
  // when consistent. Test-support API.
  bool CheckInvariants() const;

 private:
  // A node is an opaque pointer to one aligned arena slab:
  //   [ f x int64_t sums ][ f x Node* children ]   (interior)
  //   [ f x int64_t sums ]                         (leaf)
  // Whether a node is a leaf is implied by its span (span == fanout), so no
  // flag is stored and the two shapes share one handle type.
  struct Node;

  int64_t* NodeSums(Node* node) const {
    return reinterpret_cast<int64_t*>(node);
  }
  const int64_t* NodeSums(const Node* node) const {
    return reinterpret_cast<const int64_t*>(node);
  }
  Node** NodeChildren(Node* node) const {
    return reinterpret_cast<Node**>(reinterpret_cast<int64_t*>(node) +
                                    fanout_);
  }
  Node* const* NodeChildren(const Node* node) const {
    return reinterpret_cast<Node* const*>(
        reinterpret_cast<const int64_t*>(node) + fanout_);
  }

  // Allocates a node slab (leaves carry no child array), zeroed, aligned so
  // the sum array never straddles a cache line. Counts the f stored entries.
  Node* NewNode(bool is_leaf);

  // Optimized descents, specialized on whether the fanout supports
  // shift/mask child addressing.
  template <bool kPow2>
  void AddFast(int64_t index, int64_t delta);
  template <bool kPow2>
  int64_t CumulativeSumFast(int64_t index) const;

  // The pre-optimization scalar reference descents (verbatim seed shape:
  // per-level div/mod, early-terminating per-entry STS loop). Reached via
  // kernels::ForceScalar; bit-exact with the fast paths by construction,
  // which kernel_layout_test verifies.
  void AddScalarRef(int64_t index, int64_t delta);
  int64_t CumulativeSumScalarRef(int64_t index) const;

  // Dense-layout (implicit-addressing) operations.
  void EnsureDense();
  void AddDense(int64_t index, int64_t delta);
  int64_t CumulativeSumDense(int64_t index) const;
  int64_t ValueDense(int64_t index) const;
  void BuildFromDense(const std::vector<int64_t>& values);

  // Builds the subtree covering values[lo, lo+span); returns nullptr when
  // the range is entirely zero. Sets *subtree_total.
  Node* BuildRange(const std::vector<int64_t>& values, int64_t lo,
                   int64_t span, int64_t* subtree_total);
  bool CheckNode(const Node* node, int64_t span) const;
  int64_t NodeTotal(const Node* node) const;

  int64_t capacity_;
  int fanout_;
  BcLayout layout_;
  int height_;
  int64_t root_span_;  // fanout_^(height_-1) * fanout_ covers >= capacity_
  int log2_fanout_;    // log2(fanout_) when a power of two, else -1.
  int64_t total_ = 0;
  int64_t allocated_entries_ = 0;
  std::unique_ptr<Arena> owned_arena_;  // Set only for standalone trees.
  Arena* arena_;
  Node* root_ = nullptr;       // Sparse layout.
  int64_t* dense_ = nullptr;   // Dense layout: dense_slots_ * fanout_ sums.
  int64_t dense_slots_ = 0;    // (fanout^height - 1) / (fanout - 1).
};

}  // namespace ddc

#endif  // DDC_BCTREE_BC_TREE_H_
