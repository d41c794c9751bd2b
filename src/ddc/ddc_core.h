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
//     otherwise);
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
// array allocated on first use), replacing the seed's four parallel
// vectors of unique_ptrs; a descent therefore walks tightly packed memory.
// The arena is either owned (standalone cores, as in the tests) or borrowed
// from the enclosing cube (nested face cores, DynamicDataCube); see
// DESIGN.md §8 for the lifetime rules.

#ifndef DDC_DDC_DDC_CORE_H_
#define DDC_DDC_DDC_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/cell.h"
#include "common/md_array.h"
#include "common/op_counter.h"
#include "ddc/ddc_options.h"
#include "ddc/face_store.h"
#include "obs/introspect.h"
#include "obs/metrics.h"

namespace ddc {

// Structural statistics of a DdcCore's primary tree (nested face structures
// contribute to StorageCells() but are not broken out here).
struct DdcStats {
  int64_t nodes = 0;          // Materialized tree nodes.
  int64_t boxes = 0;          // Materialized overlay boxes.
  int64_t raw_blocks = 0;     // Materialized leaf blocks.
  int64_t raw_cells = 0;      // Cells held in leaf blocks.
  int64_t face_stores = 0;    // Face structures (d per materialized box).
  int64_t nonzero_cells = 0;  // Populated cells of A.
};

class DdcCore {
 public:
  // `side` must be a power of two >= 2. `counters` (may be null) receives
  // cost accounting for every operation, including work done inside nested
  // structures; it is not owned. Structure memory comes from `arena` when
  // given (not owned; must outlive the core), otherwise from a private
  // arena — growth re-rooting relies on the former to retire an entire old
  // tree by dropping one arena.
  DdcCore(int dims, int64_t side, const DdcOptions& options,
          OpCounters* counters, Arena* arena = nullptr);

  DdcCore(const DdcCore&) = delete;
  DdcCore& operator=(const DdcCore&) = delete;

  int dims() const { return dims_; }
  int64_t side() const { return side_; }
  // Side of the smallest overlay boxes / raw leaf blocks: 2^(elide_levels+1)
  // clamped to the cube side.
  int64_t min_box_side() const { return min_box_side_; }

  // A[cell] += delta; local coordinates in [0, side).
  void Add(const Cell& cell, int64_t delta);

  // A[cells[i]] += deltas[i] for the whole batch in one walk — the Figure 12
  // propagation run once per node group instead of once per update: updates
  // descending through the same child share each node visit and the
  // group's box subtotal absorbs one grouped write per level. Equivalent
  // to calling Add in a loop (callers wanting same-cell coalescing do it
  // beforehand; duplicates are merely slower here, not wrong).
  // deltas.size() must equal cells.size().
  void AddBatch(std::span<const Cell> cells, std::span<const int64_t> deltas);

  // Bulk-builds the cube from a dense array (shape must be the cube's
  // domain). The cube must be empty. A single bottom-up pass writes each
  // stored value once — O(n^d * d * log n) cell visits — instead of paying
  // the O(log^d n) update path per cell, and materializes only nonzero
  // regions.
  void BuildFromArray(const MdArray<int64_t>& array);

  // SUM(A[(0,...,0) .. cell]).
  int64_t PrefixSum(const Cell& cell) const;

  // Computes out[i] = PrefixSum(cells[i]) for the whole batch in one walk:
  // queries descending through the same child share that node visit (and
  // its cache lines) instead of re-descending from the root per query.
  // Equivalent to calling PrefixSum in a loop; out.size() must equal
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

  // The arena this core allocates from (owned or borrowed).
  Arena* arena() const { return arena_; }

  // Heap bytes currently held by the reusable write-path scratch (items
  // buffer + counting-sort workspace). Test support: repeated same-shaped
  // AddBatch calls must not grow this — the scratch-reuse contract.
  size_t update_scratch_bytes() const;

  // Number of tree levels a full root-to-leaf descent visits (the raw leaf
  // block counts as one level): log2(side / min_box_side) + 1. Queries and
  // updates record this into the ddc.query.depth / ddc.update.depth
  // histograms — the paper's per-level cost dimension.
  int DescentLevels() const {
    int levels = 1;
    for (int64_t s = side_; s > min_box_side_; s /= 2) ++levels;
    return levels;
  }

  // Observer invoked once per *primary-tree* node (or leaf block) touched
  // by queries and updates, with a stable identity pointer for the node.
  // Used by the pagesim module to model secondary-storage accesses
  // (Section 4.4's traversal-cost discussion). Nested face structures are
  // not reported. Pass nullptr to detach. Not owned.
  using NodeVisitListener = std::function<void(const void*)>;
  void set_node_visit_listener(const NodeVisitListener* listener) {
    node_visit_listener_ = listener;
  }

 private:
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
    // uses child_raw (leaf blocks of side min_box_side). At most one of the
    // two arrays is ever allocated for a given node.
    Node** child_nodes = nullptr;
    MdArray<int64_t>** child_raw = nullptr;
  };

  // One in-flight query of a PrefixSumBatch: the target offset, rebased as
  // the walk descends, and where to accumulate the answer. `home` caches
  // the child mask the item descends into at the current node.
  struct BatchItem {
    Cell offset;
    int64_t* out;
    uint32_t home;
  };

  // Reusable buffers for the batched descent. The recursion only needs them
  // between entering a node and recursing into its children, so one set
  // serves every node of the walk (the alternative, fresh vectors per node,
  // dominated the batch's cost on shallow trees). Query scratch lives in a
  // thread-local pool (see GetBatchTls) so repeated PrefixSumBatch calls
  // reuse capacity without making the const read path carry mutable state —
  // ConcurrentCube runs parallel readers against one cube.
  struct BatchScratch {
    std::vector<BatchItem> sorted;
    std::vector<size_t> begin;
    std::vector<size_t> cursor;
    Cell clamped;
    Cell transverse;  // Face-query key scratch: avoids a per-face-query
                      // Cell allocation in the batched walk.
  };

  // Thread-local scratch pool for the const batched-query path; defined in
  // ddc_core.cc. `busy` guards against (hypothetical) reentrant batched
  // queries on one thread — the fallback is a fresh local scratch.
  struct BatchTls;
  static BatchTls& GetBatchTls();

  // One in-flight update of an AddBatch: the target offset, rebased as the
  // walk descends, its delta, and the cached home-child mask.
  struct UpdateItem {
    Cell offset;
    int64_t delta;
    uint32_t home;
  };

  // The write-path counterpart of BatchScratch: counting-sort workspace
  // and face-key scratch. Shared across every node of one AddBatch walk,
  // and — writes are externally synchronized — held as a member so
  // consecutive ApplyBatch calls on one cube reuse the grown capacity
  // instead of reallocating per batch.
  struct UpdateScratch {
    std::vector<UpdateItem> sorted;
    std::vector<size_t> begin;
    std::vector<size_t> cursor;
    // Reused transverse-coordinate buffer: the batched descent performs
    // dims face adds per item per level, and materializing each transverse
    // position into a fresh Cell would make allocation the dominant cost.
    Cell transverse;
    // The single-update walk's offset cursor (Add rebases a copy of its
    // target in place).
    Cell offset;
    // Contiguous per-item deltas in counting-sorted order, so a group's
    // subtotal is one vectorized block sum instead of a strided struct
    // walk. Refilled per node; only used for groups worth the extra pass.
    std::vector<int64_t> deltas;
  };

  Node* EnsureNode(Node** slot);
  BoxData* EnsureBox(Node* node, uint32_t mask, int64_t box_side);
  MdArray<int64_t>* EnsureRaw(Node* node, uint32_t mask, int64_t box_side);

  // Single-update descent (Figure 12), one box per level. Rebases `offset`
  // in place as it descends; `transverse` is face-key scratch. Both are
  // caller-owned so the walk allocates nothing.
  void AddRec(Node* node, int64_t node_side, Cell& offset, int64_t delta,
              Cell& transverse);
  // The kernels::ForceScalar reference of the two single descents: the
  // seed's recursive walks, which allocate a Cell per level and per face
  // touched. Same values and counts; kept so bench_kernels compares the
  // optimized paths against the pre-optimization code.
  void AddScalarRef(Node* node, int64_t node_side, const Cell& offset_in_node,
                    int64_t delta);
  int64_t PrefixSumScalarRef(const Node* node, int64_t node_side,
                             const Cell& offset_in_node) const;
  // Batched update descent: groups the items by home child (the same
  // counting sort the query batch uses), applies each group's coalesced
  // box-level writes, and recurses once per group.
  void AddBatchRec(Node* node, int64_t node_side,
                   std::span<UpdateItem> items, UpdateScratch& scratch);
  // Builds the subtree for the region [anchor, anchor + node_side) of
  // `array`; returns the region total. `node` may be discarded by the
  // caller if the total is zero and nothing was materialized.
  int64_t BuildNodeFromArray(Node* node, int64_t node_side,
                             const Cell& anchor,
                             const MdArray<int64_t>& array);
  // Single-query descent (Figure 10), one node per level. Rebases `offset`
  // in place; `clamped` (dims_ wide) and `transverse` are scratch. All three
  // are caller-owned so the walk allocates nothing.
  int64_t PrefixSumRec(const Node* node, int64_t node_side, Cell& offset,
                       Cell& clamped, Cell& transverse) const;
  // Batched descent: accumulates every item's per-box contributions at this
  // node, groups the items by the child each descends into, and recurses
  // once per group.
  void PrefixSumBatchRec(const Node* node, int64_t node_side,
                         std::span<BatchItem> items,
                         BatchScratch& scratch) const;

  // Sums raw-block cells over the component-wise range [0 .. offset] — the
  // Section 4.4 space-opt leaf sum. The optimized path runs the vectorized
  // block-sum kernel over each contiguous innermost run; the scalar
  // reference (seed shape: full odometer, one LinearIndex per cell) is kept
  // for the kernels::ForceScalar contract.
  int64_t RawPrefix(const MdArray<int64_t>& raw, const Cell& offset) const;
  int64_t RawPrefixScalarRef(const MdArray<int64_t>& raw,
                             const Cell& offset) const;

  int64_t NodeStorage(const Node* node, int64_t node_side) const;
  void NodeStats(const Node* node, int64_t node_side, DdcStats* stats) const;
  void NodeForEachNonZero(
      const Node* node, int64_t node_side, const Cell& node_anchor,
      const std::function<void(const Cell&, int64_t)>& fn) const;

  // Registry handles for the process-wide mirrors of the three counts
  // (resolved once; see op_counter.h for the OpCounters/registry split).
  static obs::Counter& ObsValuesRead();
  static obs::Counter& ObsValuesWritten();
  static obs::Counter& ObsNodesVisited();
  static obs::Counter& ObsFaceLookups();

  // The Count* members also fold into the calling thread's CostLedger (when
  // one is installed) at exactly the sites that mirror into the registry —
  // the equality EXPLAIN ANALYZE's differential test relies on.
  void CountRead(int64_t n) const {
    if (counters_ != nullptr) counters_->values_read += n;
    if (obs::Enabled()) ObsValuesRead().Add(n);
    if (obs::CostLedger* l = obs::ActiveLedger()) l->values_read += n;
  }
  void CountWrite(int64_t n) const {
    if (counters_ != nullptr) counters_->values_written += n;
    if (obs::Enabled()) ObsValuesWritten().Add(n);
    if (obs::CostLedger* l = obs::ActiveLedger()) l->values_written += n;
  }
  void CountNode(const void* node_identity) const {
    if (counters_ != nullptr) ++counters_->nodes_visited;
    if (obs::Enabled()) ObsNodesVisited().Increment();
    if (obs::CostLedger* l = obs::ActiveLedger()) ++l->nodes_visited;
    if (node_visit_listener_ != nullptr && *node_visit_listener_) {
      (*node_visit_listener_)(node_identity);
    }
  }
  // Face-store consultations (the faces[...].PrefixSum branches of the
  // Figure 10 descent). Ledger + registry only; OpCounters already see the
  // nested core's own reads.
  void CountFaceLookup() const {
    if (obs::Enabled()) ObsFaceLookups().Increment();
    if (obs::CostLedger* l = obs::ActiveLedger()) ++l->face_lookups;
  }

  int dims_;
  int64_t side_;
  DdcOptions options_;
  OpCounters* counters_;
  uint32_t num_children_;
  int64_t min_box_side_;
  int64_t total_ = 0;
  const NodeVisitListener* node_visit_listener_ = nullptr;
  std::unique_ptr<Arena> owned_arena_;  // Set only for standalone cores.
  Arena* arena_;
  // Exactly one of root_ / root_raw_ is set once data exists: root_raw_ when
  // side_ <= min_box_side_ (the whole cube is one leaf block).
  Node* root_ = nullptr;
  MdArray<int64_t>* root_raw_ = nullptr;
  // Write-path scratch, reused across AddBatch/ApplyBatch calls (writes are
  // externally synchronized, so plain members are safe here).
  UpdateScratch update_scratch_;
  std::vector<UpdateItem> update_items_;
};

}  // namespace ddc

#endif  // DDC_DDC_DDC_CORE_H_
