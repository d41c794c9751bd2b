// DdcCore: the recursive engine of the Dynamic Data Cube (Section 4).
//
// A DdcCore instance manages a d-dimensional cube of side 2^m in *local*
// coordinates [0, side)^d. It is used both as the primary tree of a
// DynamicDataCube and, recursively, as the secondary structure holding a
// (d-1)-dimensional overlay face (Section 4.2).
//
// Structure. The tree recursively halves the region (Figure 9). Each node
// stores up to 2^d overlay boxes, one per child region of side k. A box
// holds:
//   * its subtotal S (cached as a plain integer, so "box entirely before the
//     target" costs O(1));
//   * d FaceStores — the cumulative row-sum groups, each a (d-1)-dimensional
//     prefix structure (B_c tree when one-dimensional, nested DdcCore
//     otherwise, or a bare leaf slab when the face is no larger than a leaf
//     block);
//   * a child: either a deeper Node (while the child boxes would still be
//     larger than the Section 4.4 elision threshold) or a raw block of A
//     cells of side k (the leaf level; with elide_levels == h the raw blocks
//     have side 2^(h+1) and replace the h elided tree levels plus the
//     leaves).
//
// Queries implement the Figure 10 descent; updates the Figure 12 bottom-up
// propagation with one box touched per level and one point update per face.
// Nodes, boxes, faces and raw blocks are all materialized lazily: untouched
// regions occupy no memory, which is what makes sparse and clustered cubes
// (Section 5) cheap.
//
// Memory layout. Every structural object — nodes, their box/child arrays,
// face stores, nested secondary cores, B_c-tree nodes, raw leaf blocks —
// is carved out of one Arena per cube, in materialization order. A node is
// a three-pointer header over inline arena arrays (2^d boxes, plus a child
// array allocated on first use); a descent therefore walks tightly packed
// memory. A raw leaf block is a bare zero-initialized arena slab of
// min_box_side^d int64_t values, addressed row-major by shifts, so the
// leaf pointer in a node's child array is the data itself. The slab
// addressing and the dominance sum over a slab are static helpers, shared
// with FaceStore's leaf faces (the faces of the smallest boxes of a d >= 3
// cube), so one implementation serves every leaf slab in the hierarchy.
// The descents key faces through fixed-size stack arrays that nested face
// cores rebase in place, so a nested core carries no scratch and never
// heap-allocates.
// A DdcCore owns nothing and is trivially destructible: nested face cores
// live in their enclosing cube's arena and register no cleanup there. The
// top level of a face hierarchy is an OwnedDdcCore, which also holds the
// arena; see DESIGN.md §8 for the lifetime rules.

#ifndef DDC_DDC_DDC_CORE_H_
#define DDC_DDC_DDC_CORE_H_

#include <cstdint>
#include <functional>
#include <span>

#include "common/arena.h"
#include "common/cell.h"
#include "common/md_array.h"
#include "common/op_counter.h"
#include "ddc/ddc_options.h"
#include "ddc/face_store.h"

namespace ddc {

// Structural statistics of a DdcCore. The first six fields describe the
// primary tree only; the next three count the whole face hierarchy, nested
// face cores included, recursively; the arena fields cover the core's
// arena, which its nested faces share (DynamicDataCube::Stats adds its
// range-add overlay trees' arenas).
struct DdcStats {
  int64_t nodes = 0;          // Materialized tree nodes.
  int64_t boxes = 0;          // Materialized overlay boxes.
  int64_t raw_blocks = 0;     // Materialized leaf blocks.
  int64_t raw_cells = 0;      // Cells held in leaf blocks.
  int64_t face_stores = 0;    // Face structures (d per materialized box).
  int64_t nonzero_cells = 0;  // Populated cells of A.
  int64_t bc_faces = 0;       // 1-D B_c-tree faces, at every nesting depth.
  int64_t nested_cores = 0;   // Nested face cores, at every nesting depth.
  int64_t leaf_faces = 0;     // Bare leaf-slab faces, at every nesting depth.
  int64_t arena_bytes_used = 0;      // Arena::bytes_used().
  int64_t arena_bytes_reserved = 0;  // Arena::bytes_reserved().

  // Field-wise sum, for the stats of several cubes (ShardedCube's shards).
  DdcStats& operator+=(const DdcStats& o) {
    nodes += o.nodes;
    boxes += o.boxes;
    raw_blocks += o.raw_blocks;
    raw_cells += o.raw_cells;
    face_stores += o.face_stores;
    nonzero_cells += o.nonzero_cells;
    bc_faces += o.bc_faces;
    nested_cores += o.nested_cores;
    leaf_faces += o.leaf_faces;
    arena_bytes_used += o.arena_bytes_used;
    arena_bytes_reserved += o.arena_bytes_reserved;
    return *this;
  }
};

// The tree-order key of a cell of a `dims`-dimensional cube of side
// 2^`height`, in the cube's local coordinates: the child masks (bit i set =
// upper half of dimension i) of the first `levels` levels of the cell's
// root-to-leaf walk, root most significant. Sorting cells by it groups them
// by subtree at each of those levels. levels * dims must not exceed 64.
inline uint64_t TreeOrderKey(const Coord* local, int dims, int height,
                             int levels) {
  uint64_t key = 0;
  for (int bit = height - 1; bit >= height - levels; --bit) {
    for (int i = dims - 1; i >= 0; --i) {
      key = (key << 1) | static_cast<uint64_t>((local[i] >> bit) & 1);
    }
  }
  return key;
}

class DdcCore {
 public:
  // Largest supported dimensionality. The descents key faces and rebase
  // offsets in fixed stack arrays of this width instead of heap Cells.
  static constexpr int kMaxDims = 20;

  // `side` must be a power of two >= 2. Every operation counts into the
  // calling thread's CountBlock (common/op_counter.h), nested structures
  // included. All structure memory comes from `arena` (not owned; must
  // outlive the core).
  DdcCore(int dims, int64_t side, const DdcOptions& options, Arena* arena);

  DdcCore(const DdcCore&) = delete;
  DdcCore& operator=(const DdcCore&) = delete;

  int dims() const { return dims_; }
  int64_t side() const { return side_; }
  // Side of the smallest overlay boxes / raw leaf blocks: 2^(elide_levels+1)
  // clamped to the cube side.
  int64_t min_box_side() const { return min_box_side_; }

  // A[cell] += delta; local coordinates in [0, side).
  void Add(const Cell& cell, int64_t delta);

  // A[cells[i]] += deltas[i] for the whole batch: the updates are taken in
  // tree order (TreeOrderKey over the whole tree), then each runs the
  // Figure 12 point descent of Add. Equal to calling Add in a
  // loop, in values and in counts; the order only decides where the nodes
  // a batch materializes land in the arena: subtree by subtree, not at
  // random (DESIGN.md §10). Callers wanting same-cell coalescing do it
  // beforehand. The sort runs on per-thread buffers that keep their
  // capacity, so once the touched cells exist a batch allocates nothing.
  // deltas.size() must equal cells.size().
  void AddBatch(std::span<const Cell> cells, std::span<const int64_t> deltas);

  // Face-store entry points (FaceStore's nested path): Add and PrefixSum on
  // a key of dims() coordinates that is caller scratch. The walk rebases
  // the key in place as it descends, so its contents are unspecified on
  // return; nothing is copied and nothing is allocated.
  void AddInPlace(Coord* key, int64_t delta);
  int64_t PrefixSumInPlace(Coord* key) const;

  // Bulk-builds the cube from a dense array (shape must be the cube's
  // domain). The cube must be empty. A single bottom-up pass writes each
  // stored value once — O(n^d * d * log n) cell visits — instead of paying
  // the O(log^d n) update path per cell, and materializes only nonzero
  // regions.
  void BuildFromArray(const MdArray<int64_t>& array);

  // SUM(A[(0,...,0) .. cell]).
  int64_t PrefixSum(const Cell& cell) const;

  // Computes out[i] = PrefixSum(cells[i]) for the whole batch: the cells
  // are taken in tree order (TreeOrderKey over the whole tree), then each
  // runs the Figure 10 point descent of PrefixSum. Equal to calling
  // PrefixSum in a loop, in values and in counts; the order only makes
  // consecutive descents share the cache lines of their common top nodes
  // (DESIGN.md §8). Sorts on the same per-thread buffers as AddBatch, so
  // once they have grown a batch allocates nothing. out.size() must equal
  // cells.size().
  void PrefixSumBatch(std::span<const Cell> cells,
                      std::span<int64_t> out) const;

  // A[cell].
  int64_t Get(const Cell& cell) const;

  // Sum over the whole cube; O(1).
  int64_t TotalSum() const { return total_; }

  // Currently allocated stored values across the node boxes, face
  // structures and raw leaf blocks (computed by traversal).
  int64_t StorageCells() const;

  // Invokes fn(cell, value) for every cell with a nonzero value, in no
  // particular order. Used for growth re-rooting, iteration and export.
  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const;

  // Structural statistics (computed by traversal).
  DdcStats Stats() const;

  // The arena this core allocates from.
  Arena* arena() const { return arena_; }

  // Number of tree levels a full root-to-leaf descent visits (the raw leaf
  // block counts as one level): log2(side / min_box_side) + 1. Queries
  // record it into the ddc.query.depth histogram and the EXPLAIN ledger's
  // tree_depth — the paper's per-level cost dimension.
  int DescentLevels() const {
    int levels = 1;
    for (int64_t s = side_; s > min_box_side_; s /= 2) ++levels;
    return levels;
  }

  // Observer invoked once per *primary-tree* node (or leaf block) touched
  // by queries and updates, with a stable identity pointer for the node.
  // Used by the pagesim module to model secondary-storage accesses
  // (Section 4.4's traversal-cost discussion). Nested face structures are
  // not reported. It runs inside a descent, so it must not issue an
  // AddBatch or PrefixSumBatch on that thread (see TreeOrder). Pass nullptr
  // to detach. Not owned.
  using NodeVisitListener = std::function<void(const void*)>;
  void set_node_visit_listener(const NodeVisitListener* listener) {
    node_visit_listener_ = listener;
  }

 private:
  // FaceStore's leaf faces share the leaf-slab helpers and cost accounting.
  friend class FaceStore;

  struct Node;

  // One overlay box (side box_side): cached subtotal plus d face stores,
  // inline in the owning node's arena-backed box array.
  struct BoxData {
    int64_t subtotal = 0;
    // Arena array of dims_ faces; null while the box is unmaterialized and
    // for 1-D cubes (whose boxes need no faces).
    FaceStore* faces = nullptr;
    bool present = false;
  };

  struct Node {
    // Arena array indexed by child mask (bit i set = upper half of dim i),
    // sized 2^d at node creation.
    BoxData* boxes = nullptr;
    // Child pointers, also indexed by mask; allocated on first child. A
    // node at side > 2*min_box_side uses child_nodes, the last tree level
    // uses child_raw (leaf slabs of min_box_side^d values). At most one of
    // the two arrays is ever allocated for a given node.
    Node** child_nodes = nullptr;
    int64_t** child_raw = nullptr;
  };

  // One cell of a batch in tree order: its TreeOrderKey and its index in
  // the batch.
  struct TreeSlot {
    uint64_t key;
    size_t index;
  };
  // The cells of a batch in tree order: keys over the whole tree, or as
  // many levels as fit in 64 bits, sorted by a stable LSD radix sort, so
  // equal keys keep their batch order. AddBatch and PrefixSumBatch walk
  // the result; it lives in this thread's buffers, which keep their
  // capacity across calls and cubes, and holds until the thread's next call.
  std::span<const TreeSlot> TreeOrder(std::span<const Cell> cells) const;

  Node* EnsureNode(Node** slot);
  BoxData* EnsureBox(Node* node, uint32_t mask, const FaceStore::Env& env);
  int64_t* EnsureRaw(Node* node, uint32_t mask);

  // Leaf blocks: zero-initialized arena slabs of min_box_side^d values,
  // row-major (last coordinate contiguous) and indexed by shifts. The
  // member forms run the static helpers at this core's leaf shape.
  int64_t LeafCells() const { return int64_t{1} << (leaf_shift_ * dims_); }
  int64_t LeafIndex(const Coord* offset) const {
    return LeafIndex(offset, dims_, leaf_shift_);
  }
  int64_t* NewLeaf() { return NewLeaf(arena_, dims_, leaf_shift_); }

  // What every face of a box of side `box_side` shares: its kind, the B_c
  // shape (bit arithmetic on the side and options) and this core's arena.
  // Derived once per descent level, never stored per face.
  FaceStore::Env FaceEnv(int64_t box_side) const {
    return FaceStore::MakeEnv(dims_ - 1, box_side, options_, arena_);
  }

  // The d face writes of one point update (Section 4.2), and the one face
  // read a partially covered box contributes (Figure 10). `offset` is
  // box-local; a 2-D core keys its 1-D faces by the other coordinate, a
  // deeper core builds the transverse key in a stack array that the nested
  // face core then rebases in place. `env` is FaceEnv of the box's side.
  void AddToFaces(BoxData* box, const FaceStore::Env& env,
                  const Coord* offset, int64_t delta);
  int64_t ReadFace(const BoxData& box, const FaceStore::Env& env, int j,
                   const Coord* clamped) const;

  // Single-update descent (Figure 12), one box per level. Rebases `offset`
  // (dims_ coordinates, caller scratch) in place as it descends.
  void AddRec(Node* node, int64_t node_side, Coord* offset, int64_t delta);
  // The kernels::ForceScalar reference of the two single descents: the
  // seed's recursive walks, which allocate a Cell per level and per face
  // touched. Same values and counts; kept so bench_kernels compares the
  // optimized paths against the pre-optimization code.
  void AddScalarRef(Node* node, int64_t node_side,
                    const Coord* offset_in_node, int64_t delta);
  int64_t PrefixSumScalarRef(const Node* node, int64_t node_side,
                             const Coord* offset_in_node) const;
  // Builds the subtree for the region [anchor, anchor + node_side) of
  // `array`; returns the region total. `node` may be discarded by the
  // caller if the total is zero and nothing was materialized.
  int64_t BuildNodeFromArray(Node* node, int64_t node_side,
                             const Cell& anchor,
                             const MdArray<int64_t>& array);
  // Single-query descent (Figure 10), one node per level. Rebases `offset`
  // (dims_ coordinates, caller scratch) in place; allocates nothing.
  int64_t PrefixSumRec(const Node* node, int64_t node_side,
                       Coord* offset) const;

  // RawPrefix (below) over one of this core's leaf blocks.
  int64_t RawPrefix(const int64_t* raw, const Coord* offset) const {
    return RawPrefix(raw, dims_, leaf_shift_, offset, node_visit_listener_);
  }

  // Leaf-slab helpers for a slab of `dims` coordinates of extent
  // 2^`shift` each. LeafIndex is the row-major index of `offset`; NewLeaf
  // carves a zeroed slab out of `arena`; LeafFromArray copies `array` (the
  // slab's own extents and order) into a new slab, or returns null when
  // the array is all zero.
  static int64_t LeafIndex(const Coord* offset, int dims, int shift) {
    int64_t index = 0;
    for (int i = 0; i < dims; ++i) index = (index << shift) | offset[i];
    return index;
  }
  static int64_t* NewLeaf(Arena* arena, int dims, int shift) {
    return arena->CreateArray<int64_t>(size_t{1} << (shift * dims));
  }
  static int64_t* LeafFromArray(Arena* arena, const MdArray<int64_t>& array);

  // Sums slab cells over the component-wise range [0 .. offset] — the
  // Section 4.4 space-opt leaf sum — counting one node visit (reported to
  // `listener`, may be null) and one read per cell summed. The optimized
  // path runs the vectorized block-sum kernel over each contiguous
  // innermost run; the scalar reference (seed shape: full odometer, one
  // LinearIndex per cell) is kept for the kernels::ForceScalar contract.
  static int64_t RawPrefix(const int64_t* raw, int dims, int shift,
                           const Coord* offset,
                           const NodeVisitListener* listener);
  static int64_t RawPrefixScalarRef(const int64_t* raw, int dims, int shift,
                                    const Coord* offset,
                                    const NodeVisitListener* listener);

  int64_t NodeStorage(const Node* node, int64_t node_side) const;
  void NodeStats(const Node* node, int64_t node_side, DdcStats* stats) const;
  void LeafStats(const int64_t* raw, DdcStats* stats) const;
  void LeafForEachNonZero(
      const int64_t* raw, const Cell& anchor,
      const std::function<void(const Cell&, int64_t)>& fn) const;
  void NodeForEachNonZero(
      const Node* node, int64_t node_side, const Cell& node_anchor,
      const std::function<void(const Cell&, int64_t)>& fn) const;

  // One node (or leaf block) visit: counted, and reported to `listener`
  // (may be null; the pagesim hook). The static form serves the static
  // leaf helpers and FaceStore's leaf faces.
  static void VisitNode(const NodeVisitListener* listener,
                        const void* node_identity) {
    CountNodeVisit();
    if (listener != nullptr && *listener) (*listener)(node_identity);
  }
  void VisitNode(const void* node_identity) const {
    VisitNode(node_visit_listener_, node_identity);
  }

  // Every face of a d >= 3 box larger than a leaf block is a nested
  // DdcCore, so its header is kept small and owns nothing: no scratch, no
  // arena, narrow fields first (sizeof(DdcCore) is pinned at <= 128 and the
  // type is trivially destructible).
  int dims_;
  uint32_t num_children_;
  int leaf_shift_;  // log2(min_box_side_).
  DdcOptions options_;
  int64_t side_;
  int64_t min_box_side_;
  int64_t total_ = 0;
  const NodeVisitListener* node_visit_listener_ = nullptr;
  Arena* arena_;
  // Exactly one of root_ / root_raw_ is set once data exists: root_raw_ when
  // side_ <= min_box_side_ (the whole cube is one leaf block; only a
  // top-level core, since such a face is a FaceStore leaf face instead).
  Node* root_ = nullptr;
  int64_t* root_raw_ = nullptr;
};

namespace internal {

// OwnedDdcCore's arena, held in a base class so it is constructed before
// the DdcCore base that allocates from it (and destroyed after it).
struct ArenaOwner {
  Arena owned_arena;
};

}  // namespace internal

// A top-level DdcCore: it owns what nested face cores do without, the
// arena the whole face hierarchy lives in. DynamicDataCube's primary tree,
// its range-add overlay trees and standalone cores (tests, benches) are
// OwnedDdcCores; nested face cores are bare DdcCores inside the owner's
// arena. Dropping the owner frees the whole hierarchy wholesale, which
// growth re-rooting relies on to retire an old tree.
class OwnedDdcCore : private internal::ArenaOwner, public DdcCore {
 public:
  OwnedDdcCore(int dims, int64_t side, const DdcOptions& options)
      : DdcCore(dims, side, options, &owned_arena) {}
};

}  // namespace ddc

#endif  // DDC_DDC_DDC_CORE_H_
