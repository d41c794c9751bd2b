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
// State and shape are split. A BcShape (fanout, height, root span) follows
// from (capacity, fanout) by bit arithmetic, so it is never stored per
// tree: the owner derives it and passes it in. A BcFace is the tree's own
// state — the root address and the running total, 16 trivially
// destructible bytes — so the DDC keeps its 1-D faces inline in its face
// arrays with no per-tree object, vtable or arena cleanup. The
// arena nodes come from is also passed in by the owner. BcTree is the
// standalone form: a CumulativeStore1D that owns an arena and one BcFace
// and runs the same descents.
//
// Inline faces. A shape of capacity <= 2 (the faces of the DDC's side-2
// boxes, the most numerous of all) allocates no node: the root slot holds
// entry 0 and the total holds entry 0 + entry 1, so the face is its own
// 16-byte leaf instead of a pointer to a fanout-wide one. It records the
// counts a one-leaf tree records (one node visit, the same values read and
// written), and a face whose entries are both zero answers 0 with no visit,
// as an unmaterialized tree does.
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

#ifndef DDC_BCTREE_BC_TREE_H_
#define DDC_BCTREE_BC_TREE_H_

#include <cstdint>
#include <vector>

#include "bctree/cumulative_store.h"
#include "common/arena.h"

namespace ddc {

// The shape of a B_c tree over `capacity` keys: everything a descent needs
// besides the tree's own state. Of() sets every field. There are no member
// initializers on purpose: a trivially default-constructible BcShape has
// no reusable tail padding, so FaceStore::MakeEnv, which runs once per
// descent level, gets Of()'s result written straight into its Env rather
// than through a temporary and a copy (about 10% of a 2-D point write).
struct BcShape {
  int64_t capacity;
  int64_t root_span;  // fanout^height, the first such power >= capacity.
  int fanout;
  int log2_fanout;    // log2(fanout) when a power of two, else -1.
  int height;         // Levels including the leaf level (>= 1).

  // Largest capacity whose faces hold their entries inline (see the header
  // comment); such a shape has no nodes.
  static constexpr int64_t kInlineCapacity = 2;
  bool is_inline() const { return capacity <= kInlineCapacity; }

  // O(1) bit arithmetic for power-of-two fanouts (the default 8), a
  // log_f(capacity) loop otherwise. capacity >= 1, fanout >= 2.
  static BcShape Of(int64_t capacity, int fanout);
};

// One B_c tree's own state; see the header comment. Every operation takes
// the tree's shape; mutations take the arena its nodes come from. Node
// visits and value reads/writes count into the calling thread's CountBlock.
class BcFace {
 public:
  void Add(const BcShape& shape, Arena* arena, int64_t index, int64_t delta);
  int64_t CumulativeSum(const BcShape& shape, int64_t index) const;
  int64_t Value(const BcShape& shape, int64_t index) const;
  int64_t TotalSum() const { return total_; }

  // Bulk-builds the tree bottom-up from `values` (one per index; shorter
  // vectors are zero-extended). The tree must be empty. Writes each stored
  // entry exactly once — O(capacity) instead of O(capacity log capacity)
  // repeated Adds — and materializes only subtrees with nonzero content.
  // Subtree totals accumulate through the vectorized block-sum kernel.
  void BuildFrom(const BcShape& shape, Arena* arena,
                 const std::vector<int64_t>& values);

  // Stored entries currently allocated (f per materialized node; an inline
  // face holds its capacity's entries once either is nonzero). Computed by
  // walking the tree.
  int64_t StorageCells(const BcShape& shape) const;

  // Verifies the STS invariant over all materialized nodes: every interior
  // entry equals the total of the child subtree it summarizes. Returns true
  // when consistent. Test-support API.
  bool CheckInvariants(const BcShape& shape) const;

 private:
  bool empty_inline() const { return slot_ == 0 && total_ == 0; }
  template <typename T>
  T* root() const {
    return reinterpret_cast<T*>(slot_);
  }
  void set_root(void* root) { slot_ = reinterpret_cast<intptr_t>(root); }

  // A tree shape: the address of the root node, 0 while the tree is all
  // zero. An inline shape: entry 0. An integer, so both readings are
  // well defined.
  intptr_t slot_ = 0;
  int64_t total_ = 0;  // Sum of all entries.
};

// A standalone B_c tree: one BcFace plus the arena and shape it runs with.
class BcTree final : public CumulativeStore1D {
 public:
  // Tuned on the bench_kernels fanout sweep (7/8/15/16): 8 sums * 8 bytes =
  // exactly one 64-byte cache line per descent level, which beat both the
  // shallower two-line fanout-16 tree and the odd fanouts that lose the
  // shift/mask addressing. See ddc_options.h for the recorded numbers.
  static constexpr int kDefaultFanout = 8;

  // Creates an all-zero tree holding `capacity` row sums. `fanout` is the
  // maximum number of children per node (>= 2).
  explicit BcTree(int64_t capacity, int fanout = kDefaultFanout);

  BcTree(const BcTree&) = delete;
  BcTree& operator=(const BcTree&) = delete;

  // See BcFace::BuildFrom.
  void BuildFrom(const std::vector<int64_t>& values);

  void Add(int64_t index, int64_t delta) override;
  int64_t CumulativeSum(int64_t index) const override;
  int64_t Value(int64_t index) const override;
  int64_t TotalSum() const override { return face_.TotalSum(); }
  int64_t capacity() const override { return shape_.capacity; }
  int64_t StorageCells() const override { return face_.StorageCells(shape_); }

  int fanout() const { return shape_.fanout; }

  // Height of the (conceptual) tree: number of levels including the leaf
  // level; a single-leaf tree has height 1.
  int height() const { return shape_.height; }

  bool CheckInvariants() const { return face_.CheckInvariants(shape_); }

 private:
  BcShape shape_;
  Arena arena_;
  BcFace face_;
};

}  // namespace ddc

#endif  // DDC_BCTREE_BC_TREE_H_
