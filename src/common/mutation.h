// Mutation: the common unit of the batched write path.
//
// Every cube accepts writes either one at a time (Set/Add virtuals) or as a
// MutationBatch through CubeInterface::ApplyBatch. A batch is semantically a
// *sequence*: applying it must be indistinguishable from applying each
// mutation in order with Add/Set/RangeAdd/RangeSet. That sequencing matters
// only when mutations overlap on cells — CoalesceMutations below folds
// point runs into a single net effect per cell so that batched
// implementations can do one tree descent per distinct cell without
// changing the observable result, and BuildCoalesceProgram extends the same
// idea to batches that also carry hyper-rectangle (range) mutations.

#ifndef DDC_COMMON_MUTATION_H_
#define DDC_COMMON_MUTATION_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/cell.h"
#include "common/range.h"

namespace ddc {

// What a mutation does. Point kinds: kAdd means A[cell] += value, kSet means
// A[cell] = value. Range kinds operate on every cell of the closed box
// [cell .. hi]: kRangeAdd means A[c] += value for all c in the box, kRangeSet
// means A[c] = value for all c in the box. An empty box (lo[i] > hi[i] in
// any dimension) is a no-op, which makes inverted bounds from untrusted
// query text harmless by construction.
enum class MutationKind { kAdd, kSet, kRangeAdd, kRangeSet };

inline bool IsRangeKind(MutationKind kind) {
  return kind == MutationKind::kRangeAdd || kind == MutationKind::kRangeSet;
}

// A single write. For point kinds `cell` is the target and `hi` must be
// empty; for range kinds `cell` is the box's low corner and `hi` its high
// corner (both inclusive — a range mutation carries 2d coordinates).
// `delta` is the additive delta for kAdd/kRangeAdd and the assigned value
// for kSet/kRangeSet.
struct Mutation {
  Cell cell;
  int64_t delta = 0;
  MutationKind kind = MutationKind::kAdd;
  Cell hi{};

  bool is_range() const { return IsRangeKind(kind); }
  // The box a range mutation covers. Only meaningful when is_range().
  Box box() const { return Box{cell, hi}; }
};

inline Mutation MakeRangeAdd(Cell lo, Cell hi, int64_t delta) {
  return Mutation{std::move(lo), delta, MutationKind::kRangeAdd,
                  std::move(hi)};
}

inline Mutation MakeRangeSet(Cell lo, Cell hi, int64_t value) {
  return Mutation{std::move(lo), value, MutationKind::kRangeSet,
                  std::move(hi)};
}

// An ordered sequence of mutations, applied front to back.
using MutationBatch = std::vector<Mutation>;

// True iff every mutation carries the right number of coordinates for
// `dims`: point mutations need a dims-ary cell and an *empty* hi (a point
// with a stray high corner is a malformed range, not a point), range
// mutations need dims-ary cell and hi both. ApplyBatch implementations
// check this before touching any state and reject the batch as a
// recoverable error (return false, nothing applied) — a malformed batch is
// a caller bug the durability and query layers must surface, not die on.
inline bool BatchWellFormed(std::span<const Mutation> batch, int dims) {
  const size_t d = static_cast<size_t>(dims);
  for (const Mutation& m : batch) {
    if (m.cell.size() != d) return false;
    if (m.is_range() ? m.hi.size() != d : !m.hi.empty()) return false;
  }
  return true;
}

// True iff range mutation `m` covers no cell (lo[i] > hi[i] in some
// dimension). Reads the corners in place, so unlike m.box().IsEmpty() it
// allocates nothing. Precondition: m.is_range() and the mutation is well
// formed.
inline bool RangeIsEmpty(const Mutation& m) {
  for (size_t d = 0; d < m.cell.size(); ++d) {
    if (m.cell[d] > m.hi[d]) return true;
  }
  return false;
}

// The box of cells a mutation can change: the degenerate one-cell box for
// point kinds, the carried box for range kinds. This is the "dirty box" the
// query-result cache intersects against cached entries — a mutation whose
// dirty box is disjoint from an entry's box cannot change that entry's sum.
// Precondition: the mutation is well formed (see BatchWellFormed); a range
// mutation with inverted bounds yields an empty box, matching its no-op
// apply semantics.
inline Box MutationDirtyBox(const Mutation& m) {
  return m.is_range() ? m.box() : Box{m.cell, m.cell};
}

// The bounding box of every dirty box in `batch` (componentwise min of the
// low corners, max of the high corners). Used as a one-test fast reject
// before the per-mutation overlap scan, and to detect batches that write
// outside a cached domain snapshot. Returns false (leaving *bounds
// untouched) when the batch contains no non-empty dirty box. Precondition:
// BatchWellFormed(batch, dims).
inline bool BatchDirtyBounds(std::span<const Mutation> batch, Box* bounds) {
  // Accumulates in place: the write path calls this once per batch, and a
  // temporary Box (or CellMin/CellMax result) per mutation is four Cell
  // allocations each — measurable against the batch apply itself.
  bool any = false;
  for (const Mutation& m : batch) {
    if (m.is_range() && RangeIsEmpty(m)) continue;
    const Cell& lo = m.cell;
    const Cell& hi = m.is_range() ? m.hi : m.cell;
    if (!any) {
      bounds->lo = lo;
      bounds->hi = hi;
      any = true;
      continue;
    }
    for (size_t d = 0; d < lo.size(); ++d) {
      if (lo[d] < bounds->lo[d]) bounds->lo[d] = lo[d];
      if (hi[d] > bounds->hi[d]) bounds->hi[d] = hi[d];
    }
  }
  return any;
}

// Historical spellings, kept so existing call sites (ShardedCube batches,
// workload generators, benches) compile unchanged.
using UpdateKind = MutationKind;
using UpdateOp = Mutation;

// The per-cell net effect of a mutation subsequence. If `has_set` is false
// the cell's run was pure kAdd and `pending_add` is the total delta. If
// `has_set` is true the run contains at least one kSet; the final value is
// `set_value + pending_add` regardless of what the cell held before, so the
// equivalent single Add delta is `set_value + pending_add - <current
// value>`. `cell` points into the folded mutations, which must outlive it.
struct CoalescedCell {
  const Cell* cell;
  int64_t pending_add = 0;
  bool has_set = false;
  int64_t set_value = 0;
};

// Folds a *point-only* `batch` into one CoalescedCell per distinct cell,
// preserving the order in which cells first appear. Sequential semantics
// are preserved exactly: a kSet discards any earlier effect on its cell,
// and kAdds after it accumulate on top of the set value. Precondition: no
// range mutations (they cannot be folded per-cell; use
// BuildCoalesceProgram for mixed batches).
inline std::vector<CoalescedCell> CoalesceMutations(
    std::span<const Mutation> batch) {
  std::vector<CoalescedCell> cells;
  cells.reserve(batch.size());
  // Open-addressed index of first appearances, at most half full: a slot
  // holds 1 + the cell's position in `cells`, 0 marks it empty. One table
  // allocation per batch, none per distinct cell.
  const int bits = std::bit_width(2 * batch.size() | 15);
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<uint32_t> table(mask + 1, 0);
  for (const Mutation& m : batch) {
    // Fibonacci hashing: the product's top bits mix every bit of the hash.
    size_t slot = static_cast<size_t>(
        (CellHash{}(m.cell) * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    while (table[slot] != 0 && *cells[table[slot] - 1].cell != m.cell) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] == 0) {
      cells.push_back(CoalescedCell{&m.cell, 0, false, 0});
      table[slot] = static_cast<uint32_t>(cells.size());
    }
    CoalescedCell& c = cells[table[slot] - 1];
    if (m.kind == MutationKind::kSet) {
      c.has_set = true;
      c.set_value = m.delta;
      c.pending_add = 0;
    } else {
      c.pending_add += m.delta;
    }
  }
  return cells;
}

// One step of a coalesce program: a run of point mutations folded per cell
// (first-appearance order), optionally followed by one range mutation. The
// program's steps applied front to back — each step's coalesced points
// first, then its range op — reproduce the batch's sequential semantics
// exactly.
struct CoalescedStep {
  std::vector<CoalescedCell> points;
  bool has_range = false;
  Mutation range;  // Meaningful only when has_range.
};

// Splits `batch` into CoalescedSteps. Every range mutation acts as a
// barrier: it closes the current point run (points before it happened
// before it; points after it open a new step). This is deliberately
// conservative — a range op is a barrier even for cells it does not cover —
// because it keeps the transform trivially order-exact for every
// interleaving, which the property tests check against a cell-by-cell
// oracle. Point runs between barriers still coalesce to one descent per
// distinct cell, so the common point-heavy batch loses nothing. The steps
// point into `batch`.
inline std::vector<CoalescedStep> BuildCoalesceProgram(
    std::span<const Mutation> batch) {
  std::vector<CoalescedStep> steps;
  size_t run_start = 0;
  for (size_t i = 0; i <= batch.size(); ++i) {
    if (i < batch.size() && !batch[i].is_range()) continue;
    if (i == batch.size() && run_start == i) break;
    CoalescedStep step;
    step.points = CoalesceMutations(batch.subspan(run_start, i - run_start));
    run_start = i + 1;
    if (i < batch.size()) {
      step.has_range = true;
      step.range = batch[i];
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace ddc

#endif  // DDC_COMMON_MUTATION_H_
