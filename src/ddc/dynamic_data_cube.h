// DynamicDataCube: the paper's primary contribution (Section 4), wrapped
// with the Section 5 capabilities — growth of the cube in any direction and
// graceful handling of sparse/clustered data.
//
// The cube manages a domain [origin, origin + side) in global coordinates
// (origin may become negative after growth). Updates outside the current
// domain trigger growth: the side doubles, moving the origin toward the new
// cell, until the cell fits. Growth direction is chosen per dimension from
// the data, not a priori — the star-catalog behaviour the paper motivates.
// Re-rooting re-inserts only the nonzero cells (lazy structure), so growing
// a sparse cube costs O(nnz * polylog) per doubling and empty space costs
// nothing, in contrast to the prefix-sum methods which must materialize and
// recompute the full bounding box (Figure 16).
//
// Range mutations (DESIGN.md §12): RangeAdd(box, v) is sublinear in the
// box. Every range-add is appended to a flat journal of (box, v) entries in
// global coordinates; reads add each *pending* entry's closed-form share
// (v times the box's overlap with the prefix region) in one short scan.
// Once more than Crossover(d, side) = 2^d (log2 side)^d entries are
// pending, each range-add folds the oldest one into an overlay of 2^d
// auxiliary DdcCore trees: its 2^d signed corner deltas (the d-dimensional
// difference array of Mishra, arXiv 1311.6093) land as polylog point
// descents, O(4^d log^d n) regardless of how many cells the box covers.
// So a read scans at most as many entries as its 2^d tree descents would
// touch stored values, a range-add never costs more than one fold, and the
// trees exist only for cubes with a long range-add history. Reads compose
// the layers: Get adds the trees' difference-array prefix and the pending
// boxes holding the cell, PrefixSum adds the 2^d weighted tree prefixes
// and the pending scan. Re-rooting rebuilds the trees from a global corner
// map kept in domain-independent coordinates; pending entries are global
// and need nothing. RangeSet is inherently per-cell and expands through
// the point pipeline.

#ifndef DDC_DDC_DYNAMIC_DATA_CUBE_H_
#define DDC_DDC_DYNAMIC_DATA_CUBE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cube_interface.h"
#include "ddc/ddc_core.h"
#include "ddc/ddc_options.h"

namespace ddc {

class DynamicDataCube : public CubeInterface {
 public:
  // Domain starts at [origin, origin + initial_side) with origin at the
  // global origin. `initial_side` must be a power of two >= 2.
  DynamicDataCube(int dims, int64_t initial_side, DdcOptions options = {});

  // Places the initial domain at an explicit origin (used e.g. to restore
  // snapshots with their exact domain geometry).
  DynamicDataCube(int dims, int64_t initial_side, DdcOptions options,
                  Cell origin);

  DynamicDataCube(const DynamicDataCube&) = delete;
  DynamicDataCube& operator=(const DynamicDataCube&) = delete;

  // Out-of-line: RangeOverlay is an incomplete type here.
  ~DynamicDataCube() override;

  // Bulk-builds a cube from a dense array in one bottom-up pass (each
  // stored value written once). The array must be a power-of-two cube of
  // side >= 2; the resulting domain is anchored at the origin.
  static std::unique_ptr<DynamicDataCube> FromArray(
      const MdArray<int64_t>& array, DdcOptions options = {});

  int dims() const override { return dims_; }
  Cell DomainLo() const override { return origin_; }
  Cell DomainHi() const override;

  // Set/Add grow the domain automatically when `cell` lies outside it.
  void Set(const Cell& cell, int64_t value) override;
  void Add(const Cell& cell, int64_t delta) override;
  // Adds `delta` to every cell of the closed box, growing the domain to
  // contain it first (unlike the fixed-domain cubes, which clip). Sublinear
  // in the box: one journal append, plus — past the crossover — one fold of
  // the oldest pending entry (2^d signed corner deltas into 2^d overlay
  // trees, each a batched polylog descent). A no-op for an empty box or
  // zero delta.
  void RangeAdd(const Box& box, int64_t delta) override;
  // Sets every cell of the box to `value` through the per-cell point
  // pipeline (range-set cannot be sublinear: each cell's prior value must
  // be discarded individually). Grows to contain the box when `value` is
  // nonzero; a zero-valued range-set clips to the current domain instead —
  // out-of-domain cells already read 0, so growth would only materialize
  // empty space (mirroring how point Set(cell, 0) outside the domain is a
  // no-op).
  void RangeSet(const Box& box, int64_t value) override;
  // Batched writes. The batch is first grown into the domain (growth
  // happens up front, so a batch straddling a re-root sees a stable
  // geometry — including the high corners of range mutations), then folded
  // into a coalesce program (common/mutation.h): point runs collapse to one
  // net delta per distinct cell and land as one DdcCore::AddBatch (point
  // descents in tree order); each range mutation is a barrier applied
  // between runs. Results are identical to applying the mutations in a loop.
  // Returns false (nothing applied) on a malformed batch (point mutations
  // carry dims() coordinates, range mutations 2*dims()).
  bool ApplyBatch(std::span<const Mutation> batch) override;
  // Get/PrefixSum/RangeSum treat cells outside the domain as zero.
  int64_t Get(const Cell& cell) const override;
  int64_t PrefixSum(const Cell& cell) const override;
  // Single range sum (inclusion-exclusion over prefix sums, as in the
  // base). Overridden only to feed the workload recorder — every executed
  // read range, single or batched, lands in the heatmap sketch.
  int64_t RangeSum(const Box& box) const override;
  // Batched range sums. Each range decomposes into at most 2^d signed
  // corner prefix sums (Figure 4); corners shared between ranges (adjacent
  // rollup slices share an entire corner set) are deduplicated, and each
  // surviving unique corner runs one prefix-sum descent, the corners taken
  // in tree order (DdcCore::PrefixSumBatch). Results are identical to
  // per-range RangeSum.
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override;
  // Includes the range-add journal and, once anything has folded, the
  // overlay trees' storage.
  int64_t StorageCells() const override;
  std::string name() const override { return "dynamic_data_cube"; }

  // Sum over the entire cube; O(1). The overlay's contribution is tracked
  // as a scalar at range-add time.
  int64_t TotalSum() const { return core_->TotalSum() + range_total_; }

  int64_t side() const { return core_->side(); }

  // Pending range-add journal entries a cube of this geometry keeps before
  // folding the oldest into the overlay trees: 2^d * (log2 side)^d, the
  // 2^d tree descents a folded read pays per corner times the stored values
  // each touches (DynamicDataCubeUpdateCost, common/cost_model.h).
  static int64_t Crossover(int dims, int64_t side);
  // Journal entries not yet folded; never above Crossover(dims(), side())
  // after a mutation or re-root.
  int64_t PendingRangeAdds() const;
  const DdcOptions& options() const { return options_; }

  // Number of re-rooting doublings performed so far.
  int64_t growth_doublings() const { return growth_doublings_; }

  // Growth doublings plus shrink rebuilds so far: every ReRootInto call.
  int64_t ReRootEpoch() const override { return reroots_; }

  // Grows the domain (if needed) until `cell` is inside it.
  void EnsureContains(const Cell& cell);

  // The growth rule ApplyBatch runs over its whole batch before any value
  // lands: a point always grows the domain to contain its cell; a range
  // grows it to contain its box only when the box is non-empty and the
  // value nonzero (a zero or empty range op clips to the domain instead,
  // so `SET 0 IN [huge box]` cannot balloon it). A caller that hands one
  // logical batch over in several ApplyBatch calls runs this over the
  // whole batch first, so it re-roots exactly as one call would.
  // Precondition: `m` is well formed for dims().
  void GrowFor(const Mutation& m);

  // The inverse of growth: rebuilds the cube into the smallest power-of-two
  // domain (side >= min_side) containing every nonzero cell. Useful after
  // mass deletions or when data has drifted away from the original domain.
  // Costs O(nnz * polylog); an empty cube shrinks to side min_side at the
  // current origin.
  void ShrinkToFit(int64_t min_side = 2) override;

  // Structural statistics of the primary tree; the arena bytes also cover
  // the range-add overlay trees.
  DdcStats Stats() const;

  // Planned shape of a RangeSumBatch call: runs only the phase-1 corner
  // decomposition (no tree descent, no mutation of any counter), so EXPLAIN
  // can print the decomposition without executing it. It is the same
  // decomposition RangeSumBatch runs, so the counts match what an
  // immediately following RangeSumBatch on the same ranges records.
  struct RangeSumPlan {
    int64_t ranges = 0;          // Ranges non-empty after domain clipping.
    int64_t corner_terms = 0;    // Signed corner terms before dedup.
    int64_t unique_corners = 0;  // Distinct prefix-sum descents.
    int64_t corners_deduped = 0; // corner_terms - unique_corners.
    int64_t overlay_trees = 0;   // Overlay descents per unique corner
                                 // (0 until the first fold, then 2^d).
    int64_t overlay_journal_boxes = 0;  // Pending journal entries scanned
                                        // per unique corner.
    int64_t descent_levels = 0;  // Current primary-tree depth.
  };
  RangeSumPlan PlanRangeSumBatch(std::span<const Box> ranges) const;
  // Prints the PlanRangeSumBatch counts for `rows` as EXPLAIN plan lines
  // (boxes after clipping, corner terms and dedup, overlay work, tree
  // depth, kernel path).
  void ExplainPlan(std::span<const Box> rows, std::ostream& os) const override;

  // Observer for primary-tree node/leaf-block touches (see
  // DdcCore::set_node_visit_listener); survives growth and shrink
  // re-rooting. Pass an empty function to detach.
  void SetNodeVisitListener(DdcCore::NodeVisitListener listener);

  // Invokes fn(cell, value) for every *logically* nonzero cell (primary
  // tree plus overlay), in global coordinates. With range-adds applied this
  // accumulates the journal's boxes cell by cell once, so it costs
  // Theta(sum of box volumes) plus the primary walk — snapshotting flattens
  // the overlay into plain points, which keeps the snapshot format
  // oblivious to ranges.
  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const;

 private:
  struct RangeOverlay;

  bool InDomain(const Cell& cell) const;
  Cell ToLocal(const Cell& cell) const { return CellSub(cell, origin_); }
  void ReattachListener();
  // The one re-root body: rebuilds the tree into a fresh core (and arena)
  // of `new_side` anchored at `new_origin`, re-inserting every nonzero cell,
  // then swaps it in (retiring the old tree wholesale), restores the
  // node-visit listener, and bumps ReRootEpoch(). Growth and both shrink
  // paths funnel through here.
  void ReRootInto(int64_t new_side, Cell new_origin);

  // Applies one range-add whose box already lies inside the domain:
  // journals the box, bumps range_total_, and folds down to the crossover
  // (at most one entry). Creates the overlay lazily.
  void ApplyRangeAddInDomain(const Box& box, int64_t delta);
  // Folds the oldest pending entries until at most Crossover(dims_, side())
  // remain: each entry's 2^d corner deltas join the global corner map and
  // land in the trees (built by the first fold).
  void FoldDownToCrossover();
  // fn(corner, d_delta) for the 2^d signed difference-array corners (GLOBAL
  // coordinates) of journal entry `entry`.
  template <typename Fn>
  void ForEachJournalCorner(size_t entry, const Fn& fn) const;
  // 2^d empty overlay trees of the current side.
  std::vector<std::unique_ptr<OwnedDdcCore>> NewOverlayTrees() const;
  // Lands difference-array deltas at GLOBAL corners in every overlay tree,
  // restricted to the current domain (see RangeOverlay in the .cc).
  void LandCorners(std::span<const Cell> globals,
                   std::span<const int64_t> d_deltas);
  // Phase 1 of RangeSumBatch, which PlanRangeSumBatch shares: every range,
  // clipped to the domain, decomposes into at most 2^d signed corner prefix
  // sums (Figure 4), corners below the domain's anchor are skipped, and the
  // rest are deduplicated across the batch. `counts` is what EXPLAIN prints
  // and what an execution records.
  struct CornerTerm {
    size_t query;
    size_t corner;  // Index into CornerPlan::corners.
    int sign;
  };
  struct CornerPlan {
    std::vector<Cell> corners;  // Unique corners, LOCAL coordinates.
    std::vector<CornerTerm> terms;
    RangeSumPlan counts;
  };
  CornerPlan DecomposeCorners(std::span<const Box> ranges) const;
  // Point-batch tail of ApplyBatch: coalesced cells -> net deltas -> one
  // core AddBatch, which applies them as point descents in tree order.
  void ApplyCoalescedPoints(std::span<const CoalescedCell> points);
  // Overlay read paths (trees plus pending journal); all take LOCAL
  // coordinates and return 0 when no overlay exists.
  int64_t OverlayValueLocal(const Cell& local) const;
  int64_t OverlayPrefixLocal(const Cell& local) const;
  // out[i] += overlay prefix at locals[i], batched per overlay tree.
  void OverlayPrefixBatchLocal(std::span<const Cell> locals,
                               std::span<int64_t> out) const;
  // out[i] += the pending entries' share of the prefix at locals[i]: one
  // pass over the journal suffix, every query corner per entry.
  void PendingPrefixBatchLocal(std::span<const Cell> locals,
                               std::span<int64_t> out) const;
  // Rebuilds the overlay trees (if any) for the current geometry from the
  // global corner map (the stored per-tree values depend on local
  // coordinates, so trees cannot be copied across a re-root).
  void RebuildOverlay();

  int dims_;
  DdcOptions options_;
  Cell origin_;
  // All structure memory for the tree lives in core_'s own arena, so
  // re-rooting frees an entire retired tree by replacing core_.
  std::unique_ptr<OwnedDdcCore> core_;
  int64_t growth_doublings_ = 0;
  int64_t reroots_ = 0;
  DdcCore::NodeVisitListener node_visit_listener_;
  // Range-add journal and overlay trees (created by the first range-add;
  // null until then so point-only cubes pay nothing). See DESIGN.md §12.
  std::unique_ptr<RangeOverlay> overlay_;
  // SUM over all applied range-adds of delta * box cells: TotalSum() =
  // primary total + this.
  int64_t range_total_ = 0;
  // ApplyCoalescedPoints' local cells and net deltas, reused across batches.
  std::vector<Cell> write_cells_;
  std::vector<int64_t> write_deltas_;
};

}  // namespace ddc

#endif  // DDC_DDC_DYNAMIC_DATA_CUBE_H_
