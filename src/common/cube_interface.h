// CubeInterface: the common contract implemented by every range-sum
// structure in this library (naive array, Prefix Sum, Relative Prefix Sum,
// Basic DDC, Dynamic Data Cube).
//
// All structures answer the same queries over the same logical array A
// (Section 2 of the paper); they differ only in cost. Integration tests and
// benchmark harnesses exercise them uniformly through this interface. The
// layers that compose over a cube — the lock-guarded facade (ShardedCube;
// one shard is the coarse configuration) and the query-result cache
// (CachedCube) — implement it too, so the executor and the differential
// suites need one code path for every stack.
//
// A cube keeps no counts of its own: every implementation counts the
// values it touches on the calling thread's CountBlock
// (common/op_counter.h), so const queries stay const and a reader measures
// any cube with CountsOf.

#ifndef DDC_COMMON_CUBE_INTERFACE_H_
#define DDC_COMMON_CUBE_INTERFACE_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "common/cell.h"
#include "common/mutation.h"
#include "common/range.h"

namespace ddc {

class CubeInterface {
 public:
  virtual ~CubeInterface() = default;

  // Number of dimensions d.
  virtual int dims() const = 0;

  // The lowest / highest cell of the current domain (inclusive). For the
  // fixed-size structures the anchor is the origin; the Dynamic Data Cube
  // may move its anchor when it grows toward negative coordinates.
  virtual Cell DomainLo() const = 0;
  virtual Cell DomainHi() const = 0;

  // Sets A[cell] to `value`.
  virtual void Set(const Cell& cell, int64_t value) = 0;

  // Adds `delta` to A[cell].
  virtual void Add(const Cell& cell, int64_t delta) = 0;

  // Returns A[cell].
  virtual int64_t Get(const Cell& cell) const = 0;

  // Adds `delta` to every cell of the closed box [box.lo .. box.hi]. The
  // box is clipped to the current domain (cells outside it are untouched);
  // an empty box — including inverted bounds — is a no-op. The default is
  // the per-cell loop; DynamicDataCube overrides it with the signed-corner
  // overlay scheme (DESIGN.md §12) and additionally grows to contain the
  // box instead of clipping, matching its point-write semantics.
  virtual void RangeAdd(const Box& box, int64_t delta);

  // Sets every cell of the clipped box to `value`. Same clipping and
  // empty-box rules as RangeAdd. Range-set is inherently Theta(|box|) for
  // nonzero `value` (each cell's prior value must be individually
  // discarded), so every implementation routes it cell-by-cell through the
  // same write pipeline as point sets.
  virtual void RangeSet(const Box& box, int64_t value);

  // Applies `batch` front to back; semantically identical to calling Add /
  // Set / RangeAdd / RangeSet per mutation in order — the contract the
  // differential tests rely on. Returns false (and applies nothing) when
  // any mutation carries the wrong coordinate arity for dims() (range
  // mutations carry 2d coordinates; see BatchWellFormed in
  // common/mutation.h); a malformed batch is a recoverable error, not an
  // abort. Structures that can amortize work across a batch (tree-ordered
  // point descents, per-cell delta coalescing, per-shard lock grouping, WAL
  // group commit) override this; the default is the plain loop.
  virtual bool ApplyBatch(std::span<const Mutation> batch);

  // Returns SUM(A[DomainLo() .. cell]). `cell` must be inside the domain.
  virtual int64_t PrefixSum(const Cell& cell) const = 0;

  // Returns SUM over the closed box [box.lo .. box.hi]; the box is clipped to
  // the domain. Default implementation: inclusion-exclusion over 2^d prefix
  // sums (Figure 4).
  virtual int64_t RangeSum(const Box& box) const;

  // Computes out[i] = RangeSum(ranges[i]) for every i; out.size() must
  // equal ranges.size(). Semantically identical to a loop of RangeSum
  // calls — the contract differential tests rely on. Structures that can
  // amortize work across a batch (deduplicated corner prefix sums taken in
  // tree order, parallel fan-out) override this; the default is the plain
  // loop.
  virtual void RangeSumBatch(std::span<const Box> ranges,
                             std::span<int64_t> out) const;

  // Total stored values (cells of auxiliary arrays, tree entries, ...). Used
  // for the Table 2 storage experiments.
  virtual int64_t StorageCells() const = 0;

  virtual std::string name() const = 0;

  // Number of tree rebuilds (growth doublings and shrinks) so far; monotone.
  // Layers that key state on the domain geometry poll it to notice a
  // re-root, including one caused by a writer that bypassed them. Fixed-
  // domain structures never re-root and keep the default 0.
  virtual int64_t ReRootEpoch() const { return 0; }

  // Rebuilds into the smallest power-of-two domain (side >= min_side)
  // holding every nonzero cell. A no-op for fixed-domain structures.
  virtual void ShrinkToFit(int64_t min_side = 2);

  // Appends the read-plan lines EXPLAIN prints for the per-row boxes
  // `rows`, without executing or mutating anything. Each layer prints its
  // own section and forwards to the layer below; the default names the
  // structure as a backend without a corner planner.
  virtual void ExplainPlan(std::span<const Box> rows, std::ostream& os) const;
};

}  // namespace ddc

#endif  // DDC_COMMON_CUBE_INTERFACE_H_
