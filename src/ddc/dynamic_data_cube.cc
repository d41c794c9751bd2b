#include "ddc/dynamic_data_cube.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/cost_model.h"
#include "common/kernels.h"
#include "obs/trace.h"
#include "obs/workload_recorder.h"

namespace ddc {

namespace {

// Registry handles (resolved once; recording is guarded by obs::Enabled()).
obs::Histogram& UpdateNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.ns");
  return h;
}
obs::Histogram& UpdateDepthHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.depth");
  return h;
}
obs::Histogram& UpdateBatchSizeHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.batch.size");
  return h;
}
obs::Histogram& PrefixSumNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.prefix_sum_ns");
  return h;
}
obs::Histogram& QueryDepthHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.depth");
  return h;
}
obs::Histogram& BatchSizeHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.batch.size");
  return h;
}
obs::Counter& BatchCornerTerms() {
  static obs::Counter& c = *obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.batch.corner_terms");
  return c;
}
obs::Counter& BatchCornersDeduped() {
  static obs::Counter& c = *obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.batch.corners_deduped");
  return c;
}
obs::Counter& OverlayJournalBoxes() {
  static obs::Counter& c = *obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.overlay_journal_boxes");
  return c;
}
obs::Histogram& RangeAddNsHist() {
  static obs::Histogram& h = *obs::MetricsRegistry::Default().GetHistogram(
      "ddc.update.range_add.ns");
  return h;
}
obs::Counter& RangeAddCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.update.range_adds");
  return c;
}
obs::Counter& ReRootCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.reroots");
  return c;
}
obs::Histogram& ReRootNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.reroot.ns");
  return h;
}

}  // namespace

// The range-add overlay (DESIGN.md §12). Every applied range-add is one
// entry of a flat journal: its box [l..h] in GLOBAL coordinates and its
// operand v. Entries past `folded` are *pending*: reads answer them by a
// direct scan, since a box's share of the prefix sum over [0..c] is just
// v * prod(max(0, min(c_i, h_i) - l_i + 1)).
//
// Once more than Crossover(d, side) entries are pending, each range-add
// folds the oldest one into the d-dimensional difference array D of
// Mishra (arXiv 1311.6093): for every subset S of the dimensions, D gains
// (-1)^|S| * v at the corner whose i-th coordinate is l[i] for i not in S
// and h[i]+1 for i in S. The overlay value at a cell x is SUM(D[p] : p <=
// x), and the prefix sum over [0..c] expands (per the identity
// prod(c_i + 1 - p_i) = sum over subsets T of prod_{i in T}(-p_i) *
// prod_{i not in T}(c_i + 1)) into 2^d weighted prefix sums, one per tree:
//
//   FoldedPrefix(c) = sum over T of prod_{i not in T}(c_i + 1)
//                       * PrefixSum_{tree T}(c)
//
// where tree T stores D[p] * prod_{i in T}(-p_i) at p. A fold lands each of
// the 2^d corners in each of the 2^d trees as one point delta, O(4^d
// log^d n) independent of the box volume.
//
// Every layer holds the overlay restricted to the current domain. Corners
// at or past the high face are left out of the trees (no in-domain query
// point dominates them); corners below the origin, which a shrink can
// leave behind when a box is cancelled by a later one, sit in the trees
// clamped to the low face, where they dominate exactly the same in-domain
// cells. The pending scan clips each box's low end to the origin for the
// same reason.
struct DynamicDataCube::RangeOverlay {
  // The journal, in application order: entry e covers lo[e*d .. e*d+d) to
  // hi[e*d .. e*d+d) and adds delta[e]. Folded entries stay: they are the
  // candidate cells ForEachNonZero enumerates.
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  std::vector<int64_t> delta;
  // Entries [0, folded) live in `corners` and the trees; the rest are
  // pending.
  size_t folded = 0;
  // Net corner deltas of the folded entries in GLOBAL coordinates; entries
  // that cancel to zero are erased. This map, not the trees, is the durable
  // truth: re-rooting rebuilds every tree from it (the per-tree stored
  // values depend on local coordinates, which a re-root changes).
  std::unordered_map<Cell, int64_t, CellHash> corners;
  // Tree memory, retired wholesale on re-root like the primary arena.
  std::unique_ptr<Arena> arena;
  // 2^d trees, built by the first fold (empty until then); index T's bit i
  // set means dimension i contributes -p_i.
  std::vector<std::unique_ptr<DdcCore>> trees;

  size_t size() const { return delta.size(); }
  size_t pending() const { return size() - folded; }
};

namespace {

// prod_{i in T}(-p[i]) — the weight tree T applies to a corner delta at p.
int64_t CornerWeight(uint32_t tree_mask, const Cell& p) {
  int64_t w = 1;
  for (int i = 0; tree_mask >> i != 0; ++i) {
    if (tree_mask & (1u << i)) w *= -p[static_cast<size_t>(i)];
  }
  return w;
}

// prod_{i not in T}(c[i] + 1) — the query-side weight of tree T at c.
int64_t QueryWeight(uint32_t tree_mask, int dims, const Cell& c) {
  int64_t w = 1;
  for (int i = 0; i < dims; ++i) {
    if (!(tree_mask & (1u << i))) w *= c[static_cast<size_t>(i)] + 1;
  }
  return w;
}

}  // namespace

int64_t DynamicDataCube::Crossover(int dims, int64_t side) {
  // A folded read pays 2^d tree descents per corner, each touching about
  // (log2 side)^d stored values (the Table 1 update cost); a pending read
  // pays one short scan per entry. Past this many pending entries the scan
  // would cost more than the descents it replaces. Capped far above any
  // journal that fits in memory, so wide cubes simply never fold.
  constexpr double kCap = 1e15;
  const double cost =
      std::ldexp(DynamicDataCubeUpdateCost(static_cast<double>(side), dims),
                 dims);
  return static_cast<int64_t>(std::llround(std::min(cost, kCap)));
}

int64_t DynamicDataCube::PendingRangeAdds() const {
  return overlay_ == nullptr ? 0
                             : static_cast<int64_t>(overlay_->pending());
}

DynamicDataCube::~DynamicDataCube() = default;

DynamicDataCube::DynamicDataCube(int dims, int64_t initial_side,
                                 DdcOptions options)
    : DynamicDataCube(dims, initial_side, options, UniformCell(dims, 0)) {}

DynamicDataCube::DynamicDataCube(int dims, int64_t initial_side,
                                 DdcOptions options, Cell origin)
    : dims_(dims),
      options_(options),
      origin_(std::move(origin)),
      arena_(std::make_unique<Arena>()),
      core_(std::make_unique<DdcCore>(dims, initial_side, options,
                                      CountersPtr(), arena_.get())) {
  DDC_CHECK(static_cast<int>(origin_.size()) == dims_);
}

std::unique_ptr<DynamicDataCube> DynamicDataCube::FromArray(
    const MdArray<int64_t>& array, DdcOptions options) {
  const Shape& shape = array.shape();
  const int dims = shape.dims();
  const Coord side = shape.extent(0);
  for (int i = 1; i < dims; ++i) DDC_CHECK(shape.extent(i) == side);
  auto cube = std::make_unique<DynamicDataCube>(dims, side, options);
  cube->core_->BuildFromArray(array);
  return cube;
}

Cell DynamicDataCube::DomainHi() const {
  Cell hi = origin_;
  for (int i = 0; i < dims_; ++i) hi[static_cast<size_t>(i)] += side() - 1;
  return hi;
}

bool DynamicDataCube::InDomain(const Cell& cell) const {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    const Coord rel = cell[ui] - origin_[ui];
    if (rel < 0 || rel >= side()) return false;
  }
  return true;
}

void DynamicDataCube::ReRootInto(int64_t new_side, Cell new_origin) {
  const int64_t old_side = side();
  obs::TraceSpan span("ddc.reroot", old_side, new_side, &ReRootNsHist());
  if (obs::Enabled()) ReRootCounter().Increment();
  // Re-root into a fresh arena: the retired tree (old nodes, faces, leaf
  // blocks) is freed wholesale when the old arena is dropped below.
  auto new_arena = std::make_unique<Arena>();
  auto new_core = std::make_unique<DdcCore>(dims_, new_side, options_,
                                            CountersPtr(), new_arena.get());
  const Cell shift = CellSub(origin_, new_origin);
  core_->ForEachNonZero([&](const Cell& local, int64_t value) {
    new_core->Add(CellAdd(local, shift), value);
  });
  core_ = std::move(new_core);    // Retires the old core first...
  arena_ = std::move(new_arena);  // ...then drops its backing arena.
  origin_ = std::move(new_origin);
  ReattachListener();
  // The overlay trees store local-coordinate-dependent values, so the new
  // geometry needs them rebuilt from the global corner map. Pending journal
  // entries are global and stay as they are, unless a shrink lowered the
  // crossover below their count.
  RebuildOverlay();
  FoldDownToCrossover();
  ++reroots_;
}

void DynamicDataCube::EnsureContains(const Cell& cell) {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  while (!InDomain(cell)) {
    // Double the cube, moving the origin toward the out-of-range cell: in
    // every dimension where the cell lies below the current origin the old
    // region becomes the upper half, otherwise the lower half. This is the
    // "growth in any direction" of Section 5.
    const int64_t old_side = side();
    Cell new_origin = origin_;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (cell[ui] < origin_[ui]) new_origin[ui] -= old_side;
    }
    ReRootInto(old_side * 2, std::move(new_origin));
    ++growth_doublings_;
  }
}

void DynamicDataCube::ShrinkToFit(int64_t min_side) {
  DDC_CHECK(min_side >= 2 && IsPowerOfTwo(min_side));
  // Bounding box of the populated cells.
  bool any = false;
  Cell lo;
  Cell hi;
  const auto widen = [&](const Cell& local) {
    if (!any) {
      lo = local;
      hi = local;
      any = true;
    } else {
      lo = CellMin(lo, local);
      hi = CellMax(hi, local);
    }
  };
  core_->ForEachNonZero(
      [&](const Cell& local, int64_t) { widen(local); });
  if (overlay_ != nullptr) {
    // The net corner deltas of the whole journal (folded map plus pending
    // entries) bound the region where the overlay is nonzero (every nonzero
    // overlay cell is dominated-by/dominates some live corner), so
    // shrinking to the corner hull is exact — and boxes whose corners
    // cancelled out no longer pin the domain.
    std::unordered_map<Cell, int64_t, CellHash> pending_net;
    for (size_t e = overlay_->folded; e < overlay_->size(); ++e) {
      ForEachJournalCorner(e, [&](const Cell& corner, int64_t d_delta) {
        pending_net[corner] += d_delta;
      });
    }
    for (const auto& [corner, d_delta] : overlay_->corners) {
      int64_t net = d_delta;
      if (auto it = pending_net.find(corner); it != pending_net.end()) {
        net += it->second;
        pending_net.erase(it);
      }
      if (net != 0) widen(ToLocal(corner));
    }
    for (const auto& [corner, net] : pending_net) {
      if (net != 0) widen(ToLocal(corner));
    }
  }
  if (!any) {
    ReRootInto(min_side, origin_);
    return;
  }
  Coord max_extent = 1;
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    max_extent = std::max(max_extent, hi[ui] - lo[ui] + 1);
  }
  const int64_t new_side = std::max(min_side, CeilPowerOfTwo(max_extent));
  if (new_side >= side()) return;  // Nothing to gain.
  ReRootInto(new_side, CellAdd(origin_, lo));
}

void DynamicDataCube::Add(const Cell& cell, int64_t delta) {
  if (delta == 0) return;
  obs::ScopedLatencyTimer timer(&UpdateNsHist());
  EnsureContains(cell);
  if (obs::Enabled()) UpdateDepthHist().Record(core_->DescentLevels());
  core_->Add(ToLocal(cell), delta);
}

void DynamicDataCube::Set(const Cell& cell, int64_t value) {
  Add(cell, value - Get(cell));
}

void DynamicDataCube::ApplyCoalescedPoints(
    std::vector<CoalescedCell>& points) {
  std::vector<Cell> cells;
  std::vector<int64_t> deltas;
  cells.reserve(points.size());
  deltas.reserve(points.size());
  for (CoalescedCell& c : points) {
    // A kSet run resolves against the cell's current value — which, because
    // steps apply in order, is exactly the value the sequential semantics
    // prescribe at this point of the batch (overlay included: Get composes
    // both layers).
    const int64_t net = c.has_set
                            ? c.set_value + c.pending_add - Get(c.cell)
                            : c.pending_add;
    if (net == 0) continue;
    // Rebase to local coordinates in place and hand the cell's storage to
    // the descent — one allocation per distinct cell for the whole batch.
    for (size_t i = 0; i < c.cell.size(); ++i) c.cell[i] -= origin_[i];
    cells.push_back(std::move(c.cell));
    deltas.push_back(net);
  }
  if (cells.empty()) return;
  core_->AddBatch(cells, deltas);
}

void DynamicDataCube::ApplyRangeAddInDomain(const Box& box, int64_t delta) {
  obs::ScopedLatencyTimer timer(&RangeAddNsHist());
  if (obs::Enabled()) RangeAddCounter().Increment();
  if (overlay_ == nullptr) overlay_ = std::make_unique<RangeOverlay>();
  RangeOverlay& o = *overlay_;
  o.lo.insert(o.lo.end(), box.lo.begin(), box.lo.end());
  o.hi.insert(o.hi.end(), box.hi.begin(), box.hi.end());
  o.delta.push_back(delta);
  range_total_ += delta * box.NumCells();
  // At most Crossover(d, side) entries were pending before this one, so this
  // folds at most the one oldest entry: no range-add pays for a bulk fold.
  FoldDownToCrossover();
}

template <typename Fn>
void DynamicDataCube::ForEachJournalCorner(size_t entry, const Fn& fn) const {
  const RangeOverlay& o = *overlay_;
  const size_t d = static_cast<size_t>(dims_);
  const int64_t* lo = &o.lo[entry * d];
  const int64_t* hi = &o.hi[entry * d];
  Cell corner(d);
  for (uint32_t mask = 0; mask < (1u << dims_); ++mask) {
    for (size_t i = 0; i < d; ++i) {
      corner[i] = (mask & (1u << i)) ? hi[i] + 1 : lo[i];
    }
    fn(corner, (std::popcount(mask) % 2 == 0) ? o.delta[entry]
                                              : -o.delta[entry]);
  }
}

void DynamicDataCube::FoldDownToCrossover() {
  if (overlay_ == nullptr) return;
  RangeOverlay& o = *overlay_;
  const size_t bound = static_cast<size_t>(Crossover(dims_, side()));
  while (o.pending() > bound) {
    if (o.trees.empty()) {
      o.arena = std::make_unique<Arena>();
      o.trees = NewOverlayTrees(o.arena.get());
    }
    // Fold the oldest pending entry: its 2^d corner deltas join the global
    // map (the durable truth) and land in every tree.
    std::vector<Cell> corners;
    std::vector<int64_t> deltas;
    ForEachJournalCorner(o.folded, [&](const Cell& corner, int64_t d_delta) {
      auto [it, inserted] = o.corners.try_emplace(corner, 0);
      it->second += d_delta;
      if (it->second == 0) o.corners.erase(it);
      corners.push_back(corner);
      deltas.push_back(d_delta);
    });
    ++o.folded;
    LandCorners(corners, deltas);
  }
}

std::vector<std::unique_ptr<DdcCore>> DynamicDataCube::NewOverlayTrees(
    Arena* arena) const {
  std::vector<std::unique_ptr<DdcCore>> trees;
  const uint32_t num_trees = 1u << dims_;
  trees.reserve(num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    // Overlay descents deliberately skip the op counters: the Table 2 /
    // op-count experiments measure the primary tree's costs.
    trees.push_back(std::make_unique<DdcCore>(dims_, side(), options_,
                                              /*counters=*/nullptr, arena));
  }
  return trees;
}

void DynamicDataCube::LandCorners(std::span<const Cell> globals,
                                  std::span<const int64_t> d_deltas) {
  // Restrict to the domain (see RangeOverlay): drop corners at or past the
  // high face, clamp the rest up to the low face.
  std::vector<Cell> locals;
  std::vector<int64_t> kept;
  locals.reserve(globals.size());
  kept.reserve(globals.size());
  for (size_t k = 0; k < globals.size(); ++k) {
    Cell local = ToLocal(globals[k]);
    bool in_domain = true;
    for (Coord& c : local) {
      in_domain = in_domain && c < side();
      c = std::max<Coord>(c, 0);
    }
    if (!in_domain) continue;
    locals.push_back(std::move(local));
    kept.push_back(d_deltas[k]);
  }
  // One batched descent per tree — the same shared-scratch walk point
  // batches use.
  std::vector<Cell> cells;
  std::vector<int64_t> deltas;
  for (uint32_t t = 0; t < overlay_->trees.size(); ++t) {
    cells.clear();
    deltas.clear();
    for (size_t k = 0; k < locals.size(); ++k) {
      const int64_t w = CornerWeight(t, locals[k]) * kept[k];
      if (w == 0) continue;  // A corner on a zero axis contributes nothing.
      cells.push_back(locals[k]);
      deltas.push_back(w);
    }
    if (!cells.empty()) overlay_->trees[t]->AddBatch(cells, deltas);
  }
}

void DynamicDataCube::RangeAdd(const Box& box, int64_t delta) {
  DDC_CHECK(box.dims() == dims_ &&
            box.hi.size() == static_cast<size_t>(dims_));
  if (box.IsEmpty() || delta == 0) return;
  obs::TraceSpan span("ddc.range_add", box.NumCells());
  EnsureContains(box.lo);
  EnsureContains(box.hi);
  ApplyRangeAddInDomain(box, delta);
}

void DynamicDataCube::RangeSet(const Box& box, int64_t value) {
  DDC_CHECK(box.dims() == dims_ &&
            box.hi.size() == static_cast<size_t>(dims_));
  const Mutation m = MakeRangeSet(box.lo, box.hi, value);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

bool DynamicDataCube::ApplyBatch(std::span<const Mutation> batch) {
  if (!BatchWellFormed(batch, dims())) return false;
  if (batch.empty()) return true;
  obs::TraceSpan span("ddc.apply_batch", static_cast<int64_t>(batch.size()));
  if (obs::Enabled()) {
    UpdateBatchSizeHist().Record(static_cast<int64_t>(batch.size()));
  }
  // Grow first: the shared descents below need every cell in-domain, and a
  // re-root mid-descent would invalidate already-rebased local offsets.
  // This is also what makes a batch straddling growth correct: geometry is
  // settled before any delta lands. Range boxes grow only when they will
  // materialize values (nonzero range-add / range-set); a zero-valued or
  // empty range op clips to the domain instead, so `SET 0 IN [huge box]`
  // cannot balloon the domain.
  for (const Mutation& m : batch) {
    if (!m.is_range()) {
      EnsureContains(m.cell);
    } else if (m.delta != 0 && !m.box().IsEmpty()) {
      EnsureContains(m.cell);
      EnsureContains(m.hi);
    }
  }

  if (obs::Enabled()) {
    // Fold the executed mutations into the hot-range sketch (a point op is
    // a 1-cell box). Geometry is already settled, so these are the ranges
    // that actually land. BatchScope: one flush for the whole batch.
    obs::WorkloadRecorder::BatchScope scope(obs::WorkloadRecorder::Default(),
                                            /*mutations=*/true, dims_);
    for (const Mutation& m : batch) {
      const int64_t* lo = m.cell.data();
      const int64_t* hi = m.is_range() ? m.hi.data() : m.cell.data();
      scope.Record(lo, hi);
    }
  }

  if (!BatchHasRange(batch)) {
    // Point-only fast path: one coalesce, one shared descent.
    std::vector<CoalescedCell> coalesced = CoalesceMutations(batch);
    if (obs::Enabled()) {
      span.set_arg1(static_cast<int64_t>(coalesced.size()));
      UpdateDepthHist().Record(core_->DescentLevels());
    }
    ApplyCoalescedPoints(coalesced);
    return true;
  }

  // Mixed batch: run the coalesce program step by step. Each range op is a
  // barrier; the point runs between barriers still share one descent each.
  for (CoalescedStep& step : BuildCoalesceProgram(batch)) {
    ApplyCoalescedPoints(step.points);
    if (!step.has_range) continue;
    const Mutation& r = step.range;
    const Box target = r.box();
    if (target.IsEmpty()) continue;
    if (r.kind == MutationKind::kRangeAdd) {
      if (r.delta != 0) ApplyRangeAddInDomain(target, r.delta);
      continue;
    }
    // kRangeSet: inherently per-cell (each cell's prior value must be
    // individually discarded), expanded through the same coalesced-point
    // pipeline as point sets. Zero-valued sets clip (see growth note
    // above); nonzero ones were grown into the domain.
    const Box clipped =
        r.delta == 0 ? IntersectBoxes(target, Box{DomainLo(), DomainHi()})
                     : target;
    if (clipped.IsEmpty()) continue;
    std::vector<CoalescedCell> sets;
    sets.reserve(static_cast<size_t>(clipped.NumCells()));
    ForEachCellInBox(clipped, [&sets, &r](const Cell& c) {
      sets.push_back(CoalescedCell{c, 0, /*has_set=*/true, r.delta});
    });
    ApplyCoalescedPoints(sets);
  }
  if (obs::Enabled()) UpdateDepthHist().Record(core_->DescentLevels());
  return true;
}

int64_t DynamicDataCube::OverlayValueLocal(const Cell& local) const {
  if (overlay_ == nullptr) return 0;
  const RangeOverlay& o = *overlay_;
  // Tree 0 (T = empty set, weight 1) stores the folded part's raw
  // difference array D; its value at a cell is D's dominated-sum, i.e. tree
  // 0's prefix.
  int64_t value = o.trees.empty() ? 0 : o.trees[0]->PrefixSum(local);
  const size_t d = static_cast<size_t>(dims_);
  for (size_t e = o.folded; e < o.size(); ++e) {
    const int64_t* lo = &o.lo[e * d];
    const int64_t* hi = &o.hi[e * d];
    bool inside = true;
    for (size_t i = 0; i < d && inside; ++i) {
      const Coord c = local[i] + origin_[i];
      inside = lo[i] <= c && c <= hi[i];
    }
    if (inside) value += o.delta[e];
  }
  return value;
}

int64_t DynamicDataCube::OverlayPrefixLocal(const Cell& local) const {
  if (overlay_ == nullptr) return 0;
  int64_t total = 0;
  for (uint32_t t = 0; t < overlay_->trees.size(); ++t) {
    total += QueryWeight(t, dims_, local) * overlay_->trees[t]->PrefixSum(local);
  }
  PendingPrefixBatchLocal(std::span<const Cell>(&local, 1),
                          std::span<int64_t>(&total, 1));
  return total;
}

void DynamicDataCube::OverlayPrefixBatchLocal(std::span<const Cell> locals,
                                              std::span<int64_t> out) const {
  if (overlay_ == nullptr || locals.empty()) return;
  if (!overlay_->trees.empty()) {
    std::vector<int64_t> tree_prefix(locals.size());
    for (uint32_t t = 0; t < overlay_->trees.size(); ++t) {
      overlay_->trees[t]->PrefixSumBatch(locals, tree_prefix);
      for (size_t k = 0; k < locals.size(); ++k) {
        out[k] += QueryWeight(t, dims_, locals[k]) * tree_prefix[k];
      }
    }
  }
  PendingPrefixBatchLocal(locals, out);
}

void DynamicDataCube::PendingPrefixBatchLocal(std::span<const Cell> locals,
                                              std::span<int64_t> out) const {
  const RangeOverlay& o = *overlay_;
  if (o.pending() == 0) return;
  // Work in local coordinates: rebase each entry once, clipping its low
  // end to the low face (see RangeOverlay), then sweep every query corner
  // past it while the entry sits in registers.
  const size_t d = static_cast<size_t>(dims_);
  std::vector<Coord> box(2 * d);
  for (size_t e = o.folded; e < o.size(); ++e) {
    for (size_t i = 0; i < d; ++i) {
      box[i] = std::max<Coord>(o.lo[e * d + i] - origin_[i], 0);
      box[d + i] = o.hi[e * d + i] - origin_[i];
    }
    const int64_t delta = o.delta[e];
    for (size_t k = 0; k < locals.size(); ++k) {
      const Cell& c = locals[k];
      int64_t term = delta;
      for (size_t i = 0; i < d; ++i) {
        const Coord extent = std::min(c[i], box[d + i]) - box[i] + 1;
        if (extent <= 0) {
          term = 0;
          break;
        }
        term *= extent;
      }
      out[k] += term;
    }
  }
}

void DynamicDataCube::RebuildOverlay() {
  if (overlay_ == nullptr || overlay_->trees.empty()) return;
  overlay_->trees.clear();  // Retire the old trees before their arena.
  overlay_->arena = std::make_unique<Arena>();
  overlay_->trees = NewOverlayTrees(overlay_->arena.get());
  std::vector<Cell> corners;
  std::vector<int64_t> deltas;
  corners.reserve(overlay_->corners.size());
  deltas.reserve(overlay_->corners.size());
  for (const auto& [global, d_delta] : overlay_->corners) {
    corners.push_back(global);
    deltas.push_back(d_delta);
  }
  LandCorners(corners, deltas);
}

int64_t DynamicDataCube::StorageCells() const {
  int64_t cells = core_->StorageCells();
  if (overlay_ != nullptr) {
    for (const auto& tree : overlay_->trees) cells += tree->StorageCells();
    // The journal: a box and an operand per entry.
    cells += static_cast<int64_t>(overlay_->lo.size() + overlay_->hi.size() +
                                  overlay_->delta.size());
  }
  return cells;
}

int64_t DynamicDataCube::Get(const Cell& cell) const {
  if (!InDomain(cell)) return 0;
  const Cell local = ToLocal(cell);
  return core_->Get(local) + OverlayValueLocal(local);
}

int64_t DynamicDataCube::PrefixSum(const Cell& cell) const {
  DDC_CHECK(InDomain(cell));
  obs::ScopedLatencyTimer timer(&PrefixSumNsHist());
  if (obs::Enabled()) QueryDepthHist().Record(core_->DescentLevels());
  if (obs::CostLedger* l = obs::ActiveLedger()) {
    l->tree_depth = std::max(
        l->tree_depth, static_cast<int64_t>(core_->DescentLevels()));
  }
  const Cell local = ToLocal(cell);
  return core_->PrefixSum(local) + OverlayPrefixLocal(local);
}

int64_t DynamicDataCube::RangeSum(const Box& box) const {
  if (obs::Enabled()) {
    obs::WorkloadRecorder::Default().RecordRead(box.lo.data(),
                                                box.hi.data(), dims_);
  }
  return CubeInterface::RangeSum(box);
}

void DynamicDataCube::RangeSumBatch(std::span<const Box> ranges,
                                    std::span<int64_t> out) const {
  DDC_CHECK(ranges.size() == out.size());
  if (ranges.empty()) return;
  obs::TraceSpan span("ddc.range_sum_batch",
                      static_cast<int64_t>(ranges.size()));
  if (obs::Enabled()) {
    obs::WorkloadRecorder::BatchScope scope(obs::WorkloadRecorder::Default(),
                                            /*mutations=*/false, dims_);
    for (const Box& r : ranges) {
      scope.Record(r.lo.data(), r.hi.data());
    }
  }

  // Phase 1: decompose every (clipped) range into signed corner terms,
  // deduplicating corners across the whole batch. A rollup's adjacent
  // slices share half their corners (next.lo - 1 == prev.hi), so the
  // number of distinct prefix sums is typically far below 2^d per range.
  struct Term {
    size_t query;
    size_t corner;  // Index into `corners`.
    int sign;
  };
  std::vector<Cell> corners;
  std::vector<Term> terms;
  std::unordered_map<Cell, size_t, CellHash> corner_index;
  const Box domain{DomainLo(), DomainHi()};
  const int d = dims_;
  const uint32_t num_corners = 1u << d;
  corners.reserve(ranges.size() * num_corners);
  terms.reserve(ranges.size() * num_corners);
  corner_index.reserve(ranges.size() * num_corners);
  Cell corner(static_cast<size_t>(d));
  for (size_t q = 0; q < ranges.size(); ++q) {
    out[q] = 0;
    const Box clipped = IntersectBoxes(ranges[q], domain);
    if (clipped.IsEmpty()) continue;
    for (uint32_t mask = 0; mask < num_corners; ++mask) {
      // Bit i set: take lo[i]-1 in dimension i; clear: take hi[i].
      bool below_anchor = false;
      for (int i = 0; i < d; ++i) {
        size_t ui = static_cast<size_t>(i);
        if (mask & (1u << i)) {
          corner[ui] = clipped.lo[ui] - 1;
          if (corner[ui] < domain.lo[ui]) {
            below_anchor = true;
            break;
          }
        } else {
          corner[ui] = clipped.hi[ui];
        }
      }
      if (below_anchor) continue;  // Empty prefix region contributes zero.
      const Cell local = ToLocal(corner);
      auto [it, inserted] = corner_index.try_emplace(local, corners.size());
      if (inserted) corners.push_back(local);
      terms.push_back(
          {q, it->second, (std::popcount(mask) % 2 == 0) ? 1 : -1});
    }
  }

  // Phase 2: resolve every unique corner in one shared descent.
  if (obs::Enabled()) {
    BatchSizeHist().Record(static_cast<int64_t>(ranges.size()));
    BatchCornerTerms().Add(static_cast<int64_t>(terms.size()));
    // Corners the dedup map collapsed: descents the batch did NOT pay for.
    BatchCornersDeduped().Add(
        static_cast<int64_t>(terms.size() - corners.size()));
    span.set_arg1(static_cast<int64_t>(corners.size()));
  }
  // The overlay terms every unique corner pays: 2^d tree descents once
  // anything has folded, plus a scan of the pending journal entries.
  int64_t overlay_trees = 0;
  int64_t journal_boxes = 0;
  if (overlay_ != nullptr && !corners.empty()) {
    overlay_trees = static_cast<int64_t>(overlay_->trees.size());
    journal_boxes = static_cast<int64_t>(overlay_->pending());
  }
  if (obs::Enabled() && journal_boxes > 0) {
    OverlayJournalBoxes().Add(journal_boxes);
  }
  if (obs::CostLedger* l = obs::ActiveLedger()) {
    l->corner_terms += static_cast<int64_t>(terms.size());
    l->unique_corners += static_cast<int64_t>(corners.size());
    l->corners_deduped +=
        static_cast<int64_t>(terms.size() - corners.size());
    l->overlay_terms += overlay_trees;
    l->overlay_journal_boxes += journal_boxes;
    l->tree_depth = std::max(
        l->tree_depth, static_cast<int64_t>(core_->DescentLevels()));
  }
  std::vector<int64_t> prefix(corners.size());
  core_->PrefixSumBatch(corners, prefix);
  // The overlay's contribution to each unique corner rides the same
  // dedup: one extra batched descent per overlay tree, one journal scan.
  OverlayPrefixBatchLocal(corners, prefix);

  // Phase 3: recombine.
  for (const Term& t : terms) {
    out[t.query] += t.sign * prefix[t.corner];
  }
}

DynamicDataCube::RangeSumPlan DynamicDataCube::PlanRangeSumBatch(
    std::span<const Box> ranges) const {
  // Phase 1 of RangeSumBatch, count-only: same clipping, same skip rules,
  // same dedup keying — so the plan matches what an execution would record
  // — but no descent and no counter/recorder traffic.
  RangeSumPlan plan;
  plan.descent_levels = core_->DescentLevels();
  if (overlay_ != nullptr) {
    plan.overlay_trees = static_cast<int64_t>(overlay_->trees.size());
    plan.overlay_journal_boxes = static_cast<int64_t>(overlay_->pending());
  }
  const Box domain{DomainLo(), DomainHi()};
  const int d = dims_;
  const uint32_t num_corners = 1u << d;
  std::unordered_set<Cell, CellHash> unique;
  Cell corner(static_cast<size_t>(d));
  for (const Box& range : ranges) {
    const Box clipped = IntersectBoxes(range, domain);
    if (clipped.IsEmpty()) continue;
    ++plan.ranges;
    for (uint32_t mask = 0; mask < num_corners; ++mask) {
      bool below_anchor = false;
      for (int i = 0; i < d; ++i) {
        size_t ui = static_cast<size_t>(i);
        if (mask & (1u << i)) {
          corner[ui] = clipped.lo[ui] - 1;
          if (corner[ui] < domain.lo[ui]) {
            below_anchor = true;
            break;
          }
        } else {
          corner[ui] = clipped.hi[ui];
        }
      }
      if (below_anchor) continue;
      ++plan.corner_terms;
      if (unique.insert(ToLocal(corner)).second) ++plan.unique_corners;
    }
  }
  plan.corners_deduped = plan.corner_terms - plan.unique_corners;
  if (plan.unique_corners == 0) {
    plan.overlay_trees = 0;
    plan.overlay_journal_boxes = 0;
  }
  return plan;
}

void DynamicDataCube::ExplainPlan(std::span<const Box> rows,
                                  std::ostream& os) const {
  const RangeSumPlan plan = PlanRangeSumBatch(rows);
  os << "  boxes after clipping: " << plan.ranges << "\n"
     << "  corner terms: " << plan.corner_terms << "\n"
     << "  corners deduped: " << plan.corners_deduped << "\n"
     << "  unique corners: " << plan.unique_corners << "\n"
     << "  overlay trees: " << plan.overlay_trees << "\n"
     << "  overlay journal boxes: " << plan.overlay_journal_boxes << "\n"
     << "  tree depth: " << plan.descent_levels << "\n"
     << "  kernel path: " << (kernels::UseScalar() ? "scalar" : "simd")
     << "\n";
}

void DynamicDataCube::SetNodeVisitListener(
    DdcCore::NodeVisitListener listener) {
  node_visit_listener_ = std::move(listener);
  ReattachListener();
}

void DynamicDataCube::ReattachListener() {
  core_->set_node_visit_listener(
      node_visit_listener_ ? &node_visit_listener_ : nullptr);
}

void DynamicDataCube::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  if (overlay_ == nullptr) {
    core_->ForEachNonZero([&](const Cell& local, int64_t value) {
      fn(CellAdd(local, origin_), value);
    });
    return;
  }
  // The overlay's value at every journal cell, accumulated once per entry
  // — the cells are the candidates anyway, so this is Theta(sum of box
  // volumes) with no descent per cell. Boxes can poke outside the domain
  // after a shrink; the clipped-away region is provably zero (shrink keeps
  // the corner hull).
  const RangeOverlay& o = *overlay_;
  const size_t d = static_cast<size_t>(dims_);
  const Box local_domain{UniformCell(dims_, 0),
                         UniformCell(dims_, side() - 1)};
  std::unordered_map<Cell, int64_t, CellHash> overlay_cells;
  Box box{Cell(d), Cell(d)};
  for (size_t e = 0; e < o.size(); ++e) {
    for (size_t i = 0; i < d; ++i) {
      box.lo[i] = o.lo[e * d + i] - origin_[i];
      box.hi[i] = o.hi[e * d + i] - origin_[i];
    }
    const int64_t delta = o.delta[e];
    ForEachCellInBox(IntersectBoxes(box, local_domain),
                     [&](const Cell& local) { overlay_cells[local] += delta; });
  }
  // Merge with the primary tree; each cell is emitted at most once and
  // cells whose two layers cancel are skipped.
  core_->ForEachNonZero([&](const Cell& local, int64_t value) {
    if (auto it = overlay_cells.find(local); it != overlay_cells.end()) {
      value += it->second;
      overlay_cells.erase(it);
    }
    if (value != 0) fn(CellAdd(local, origin_), value);
  });
  for (const auto& [local, value] : overlay_cells) {
    if (value != 0) fn(CellAdd(local, origin_), value);
  }
}

}  // namespace ddc
