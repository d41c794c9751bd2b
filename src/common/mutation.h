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

#include <cstdint>
#include <span>
#include <unordered_map>
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

// True iff any mutation in `batch` is a range kind. Layers whose fast path
// only understands points (per-slab scatter, coalesce-before-submit) use
// this to route range-carrying batches through their exact slow path.
inline bool BatchHasRange(std::span<const Mutation> batch) {
  for (const Mutation& m : batch) {
    if (m.is_range()) return true;
  }
  return false;
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
// value>`.
struct CoalescedCell {
  Cell cell;
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
  // Keyed by the batch's own cells (which outlive this call), so a new
  // cell costs one copy — into the result — not a second one for the key.
  struct CellPtrHash {
    size_t operator()(const Cell* cell) const { return CellHash{}(*cell); }
  };
  struct CellPtrEq {
    bool operator()(const Cell* a, const Cell* b) const { return *a == *b; }
  };
  std::unordered_map<const Cell*, size_t, CellPtrHash, CellPtrEq> index;
  index.reserve(batch.size());
  for (const Mutation& m : batch) {
    auto [it, inserted] = index.try_emplace(&m.cell, cells.size());
    if (inserted) cells.push_back(CoalescedCell{m.cell, 0, false, 0});
    CoalescedCell& c = cells[it->second];
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
// distinct cell, so the common point-heavy batch loses nothing.
inline std::vector<CoalescedStep> BuildCoalesceProgram(
    std::span<const Mutation> batch) {
  std::vector<CoalescedStep> steps;
  MutationBatch run;
  for (const Mutation& m : batch) {
    if (!m.is_range()) {
      run.push_back(m);
      continue;
    }
    CoalescedStep step;
    step.points = CoalesceMutations(run);
    run.clear();
    step.has_range = true;
    step.range = m;
    steps.push_back(std::move(step));
  }
  if (!run.empty()) {
    CoalescedStep step;
    step.points = CoalesceMutations(run);
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace ddc

#endif  // DDC_COMMON_MUTATION_H_
