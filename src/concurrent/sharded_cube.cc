#include "concurrent/sharded_cube.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "ddc/dynamic_data_cube.h"
#include "fault/failpoint.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddc {

namespace {

// The facade's operation counts, in the registry the renderers and
// `ddctool stats` read. Resolved once. Every counter here is deterministic
// for a fixed single-threaded workload (`ddctool stats` relies on it).
struct ShardedObs {
  obs::Counter& point_writes;
  obs::Counter& batches;
  obs::Counter& batched_ops;
  obs::Counter& point_reads;
  obs::Counter& range_queries;
  obs::Counter& reroots;
  obs::Histogram& batch_group_size;

  static ShardedObs& Get() {
    static ShardedObs* obs = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new ShardedObs{*reg.GetCounter("sharded.point_writes"),
                            *reg.GetCounter("sharded.batches"),
                            *reg.GetCounter("sharded.batched_ops"),
                            *reg.GetCounter("sharded.point_reads"),
                            *reg.GetCounter("sharded.range_queries"),
                            *reg.GetCounter("sharded.reroots"),
                            *reg.GetHistogram("sharded.batch.group_size")};
    }();
    return *obs;
  }
};

// Floor division (C++ integer division truncates toward zero; slab indices
// must be continuous across negative coordinates).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) {
  const int64_t m = a % b;
  return m < 0 ? m + b : m;
}

// Folds one pool task's private ledger into the caller's active ledger
// (counts add; tree depth is a high-water mark). Runs on the calling
// thread after ParallelFor returns, so the merge itself is single-threaded.
void MergeLedger(obs::CostLedger& into, const obs::CostLedger& from) {
  into += from;  // The OpCounters part.
  into.tree_depth = std::max(into.tree_depth, from.tree_depth);
  into.corner_terms += from.corner_terms;
  into.corners_deduped += from.corners_deduped;
  into.unique_corners += from.unique_corners;
  into.overlay_terms += from.overlay_terms;
  into.overlay_journal_boxes += from.overlay_journal_boxes;
  into.shard_groups += from.shard_groups;
  into.shard_subqueries += from.shard_subqueries;
}

// Entered at the top of every shard critical section, with the lock held.
void ShardDelayFaultSite() {
  if (DDC_FAULTPOINT("sharded.owner.delay")) {
    // Stall inside the critical section: long enough for other callers to
    // pile up on this shard's lock, which exercises lock handoff, ordered
    // ForEachNonZero acquisition and growth under contention.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// A reader-writer lock that admits no new reader while a writer waits
// (std::shared_mutex on glibc does, so continuous reads can starve the
// writers). Meets the SharedMutex requirements std::shared_lock and
// std::unique_lock use. Shard locks are never taken recursively, which
// writer preference requires.
class ShardMutex {
 public:
  ShardMutex() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#ifdef __GLIBC__
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~ShardMutex() { pthread_rwlock_destroy(&lock_); }
  ShardMutex(const ShardMutex&) = delete;
  ShardMutex& operator=(const ShardMutex&) = delete;

  void lock() { pthread_rwlock_wrlock(&lock_); }
  void unlock() { pthread_rwlock_unlock(&lock_); }
  void lock_shared() { pthread_rwlock_rdlock(&lock_); }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  pthread_rwlock_t lock_;
};

// Copies `from` into `to`, reusing `to`'s Cell buffers.
void CopyInto(Mutation& to, const Mutation& from) {
  to.cell.assign(from.cell.begin(), from.cell.end());
  to.delta = from.delta;
  to.kind = from.kind;
  to.hi.assign(from.hi.begin(), from.hi.end());
}

void CopyInto(Box& to, const Box& from) {
  to.lo.assign(from.lo.begin(), from.lo.end());
  to.hi.assign(from.hi.begin(), from.hi.end());
}

// Copies `from` clipped to [lo0, hi0] along dimension 0 into `to`.
void ClipInto(Box& to, const Box& from, Coord lo0, Coord hi0) {
  CopyInto(to, from);
  to.lo[0] = lo0;
  to.hi[0] = hi0;
}

// One clipped box of a RangeSumBatch call and the output it feeds.
struct BoxPiece {
  size_t query;
  Box box;
};

// The routing scratch of ShardedCube::ApplyBatch (Piece = Mutation) and
// RangeSumBatch (Piece = BoxPiece), one of each per calling thread. Every
// buffer keeps its capacity across calls, so a steady-state batch routes
// without touching the heap. One instance per thread suffices: a call
// never re-enters its own entry point on its own thread (shard work calls
// only the shard cubes, and a pool task never waits on the pool).
template <typename Piece>
struct RouteScratch {
  // One routed item, in batch order: its shard, and `ref`, an index into
  // the caller's batch or, from the batch's size up, into `pieces`.
  struct Routed {
    uint32_t shard;
    uint32_t ref;
  };
  std::vector<Routed> routes;
  // The refs of `routes` grouped by shard by a stable counting sort: shard
  // s's group is order[begin[s] .. begin[s + 1]), in batch order.
  std::vector<uint32_t> order;
  std::vector<size_t> begin;
  std::vector<size_t> cursor;
  std::vector<int> touched;  // Shards with a non-empty group, ascending.
  // Rewritten items (per-slab pieces of a range or a box, clipped zero
  // range-sets). Slots from `pieces_used` up keep their Cells for the next
  // call.
  std::vector<Piece> pieces;
  size_t pieces_used = 0;

  void Reset(size_t items) {
    routes.clear();
    routes.reserve(items);  // Exact unless an item spans slabs.
    pieces_used = 0;
  }

  static RouteScratch& ThreadLocal() {
    thread_local RouteScratch scratch;
    return scratch;
  }

  void Route(int shard, size_t ref) {
    DDC_CHECK(ref <= UINT32_MAX);
    routes.push_back(
        {static_cast<uint32_t>(shard), static_cast<uint32_t>(ref)});
  }

  Piece& NextPiece() {
    if (pieces_used == pieces.size()) pieces.emplace_back();
    return pieces[pieces_used++];
  }

  void GroupByShard(int num_shards) {
    const size_t n = static_cast<size_t>(num_shards);
    begin.assign(n + 1, 0);
    for (const Routed& r : routes) ++begin[r.shard + 1];
    touched.clear();
    for (size_t s = 0; s < n; ++s) {
      if (begin[s + 1] != 0) touched.push_back(static_cast<int>(s));
      begin[s + 1] += begin[s];
    }
    cursor.assign(begin.begin(), begin.end() - 1);
    order.resize(routes.size());
    for (const Routed& r : routes) order[cursor[r.shard]++] = r.ref;
  }

  std::span<const uint32_t> Group(int s) const {
    const size_t us = static_cast<size_t>(s);
    return std::span<const uint32_t>(order).subspan(
        begin[us], begin[us + 1] - begin[us]);
  }
};

// The mutations `refs` name, gathered in order into this thread's slice
// buffer, whose Cells keep their capacity from slice to slice.
std::span<const Mutation> SliceOf(std::span<const uint32_t> refs,
                                  std::span<const Mutation> ops,
                                  std::span<const Mutation> pieces) {
  thread_local MutationBatch gather;
  if (gather.size() < refs.size()) gather.resize(refs.size());
  for (size_t k = 0; k < refs.size(); ++k) {
    CopyInto(gather[k], refs[k] < ops.size() ? ops[refs[k]]
                                             : pieces[refs[k] - ops.size()]);
  }
  return std::span<const Mutation>(gather.data(), refs.size());
}

// A point-only group (every ref indexes `ops`) stably sorted by the shard
// tree's Z-order: its TreeOrderKey over the top levels, as many as fit in
// 12 bits, so one counting sort buckets it. One unsliced apply lays a
// subtree's new nodes out together; slices in batch order would each add
// nodes all over the tree and spread a subtree over the arena, which reads
// measurably slower (DESIGN.md §15). Stable, so the mutations of one cell
// keep their batch order. Returns the sorted refs in this thread's buffer,
// or `group` itself when not even one level fits in the key.
std::span<const uint32_t> ZOrdered(const DynamicDataCube& cube,
                                   std::span<const uint32_t> group,
                                   std::span<const Mutation> ops) {
  constexpr int kKeyBits = 12;
  const int dims = cube.dims();
  const int height = std::countr_zero(static_cast<uint64_t>(cube.side()));
  const int levels = std::min(height, kKeyBits / dims);
  if (levels == 0) return group;
  const Cell origin = cube.DomainLo();
  const auto key = [&](uint32_t ref) {
    const Cell& cell = ops[ref].cell;
    Coord local[DdcCore::kMaxDims];
    for (size_t i = 0; i < origin.size(); ++i) local[i] = cell[i] - origin[i];
    return static_cast<size_t>(TreeOrderKey(local, dims, height, levels));
  };
  struct Buffers {
    std::vector<size_t> begin;
    std::vector<uint32_t> sorted;
  };
  thread_local Buffers buf;
  const size_t buckets = size_t{1} << (levels * dims);
  buf.begin.assign(buckets + 1, 0);
  for (uint32_t ref : group) ++buf.begin[key(ref) + 1];
  for (size_t b = 0; b < buckets; ++b) buf.begin[b + 1] += buf.begin[b];
  buf.sorted.resize(group.size());
  for (uint32_t ref : group) buf.sorted[buf.begin[key(ref)]++] = ref;
  return buf.sorted;
}

}  // namespace

// Over-aligned so two shards never share a cache line; the epoch gets a
// line of its own, away from the lock every op writes.
struct alignas(128) ShardedCube::Shard {
  mutable ShardMutex mutex;
  std::unique_ptr<DynamicDataCube> cube;
  // The shard's re-root epoch mirror: WriteShard copies
  // cube->ReRootEpoch() into it before releasing the exclusive lock.
  alignas(64) std::atomic<int64_t> reroots{0};
};

// ---------------------------------------------------------------------------
// Construction.

ShardedCube::ShardedCube(int dims, int64_t initial_side, int num_shards,
                         DdcOptions options)
    : dims_(dims),
      num_shards_(num_shards),
      // max(num_shards, 1): keep a contract violation (num_shards < 1) on
      // the DDC_CHECK below instead of a divide-by-zero in this initializer.
      slab_width_(std::max<int64_t>(
          1, initial_side / std::max(num_shards, 1))),
      shards_(std::make_unique<Shard[]>(
          static_cast<size_t>(std::max(num_shards, 0)))) {
  DDC_CHECK(num_shards >= 1);
  for (int s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.cube = std::make_unique<DynamicDataCube>(dims, initial_side, options);
  }
}

ShardedCube::~ShardedCube() = default;

// ---------------------------------------------------------------------------
// Decomposition.

int64_t ShardedCube::SlabIndex(Coord c0) const {
  return FloorDiv(c0, slab_width_);
}

int ShardedCube::ShardOf(const Cell& cell) const {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  return static_cast<int>(FloorMod(SlabIndex(cell[0]), num_shards_));
}

template <typename Fn>
void ShardedCube::ForEachReadPiece(const Box& box, Fn&& fn) const {
  if (box.IsEmpty()) return;
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  if (slab_hi - slab_lo + 1 >= num_shards_) {
    // Every shard owns slabs inside the box; clipping along dimension 0
    // buys nothing (each shard's cube only holds its own cells anyway).
    for (int s = 0; s < num_shards_; ++s) fn(s, box.lo[0], box.hi[0]);
    return;
  }
  // Fewer slabs than shards: each intersecting slab belongs to a distinct
  // shard, whose piece is clipped to the slab so the shard query touches
  // only the relevant part of its domain.
  for (int64_t slab = slab_lo; slab <= slab_hi; ++slab) {
    fn(static_cast<int>(FloorMod(slab, num_shards_)),
       std::max<Coord>(box.lo[0], slab * slab_width_),
       std::min<Coord>(box.hi[0], slab * slab_width_ + slab_width_ - 1));
  }
}

template <typename Fn>
void ShardedCube::ForEachWritePiece(Coord lo0, Coord hi0, Fn&& fn) const {
  if (num_shards_ == 1) {
    // Every slab is shard 0's and adjacent slabs merge: one piece.
    fn(0, lo0, hi0);
    return;
  }
  // With two or more shards adjacent slabs never share a shard.
  for (int64_t slab = SlabIndex(lo0); slab <= SlabIndex(hi0); ++slab) {
    fn(static_cast<int>(FloorMod(slab, num_shards_)),
       std::max<Coord>(lo0, slab * slab_width_),
       std::min<Coord>(hi0, slab * slab_width_ + slab_width_ - 1));
  }
}

// ---------------------------------------------------------------------------
// Shard critical sections.

template <typename Fn>
void ShardedCube::ReadShard(int s, Fn&& fn) const {
  const Shard& shard = shards_[static_cast<size_t>(s)];
  std::shared_lock lock(shard.mutex);
  ShardDelayFaultSite();
  fn(static_cast<const DynamicDataCube&>(*shard.cube));
}

template <typename Fn>
void ShardedCube::WriteShard(int s, Fn&& fn) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  std::unique_lock lock(shard.mutex);
  ShardDelayFaultSite();
  fn(*shard.cube);
  // Refresh the epoch mirror while the exclusive hold still orders this
  // write against every other writer of the shard.
  const int64_t epoch = shard.cube->ReRootEpoch();
  const int64_t seen = shard.reroots.load();
  if (epoch != seen) {
    shard.reroots.store(epoch);
    if (obs::Enabled()) ShardedObs::Get().reroots.Add(epoch - seen);
  }
}

// ---------------------------------------------------------------------------
// Writers.

void ShardedCube::Add(const Cell& cell, int64_t delta) {
  const int s = ShardOf(cell);
  if (obs::Enabled()) ShardedObs::Get().point_writes.Increment();
  WriteShard(s, [&](DynamicDataCube& cube) { cube.Add(cell, delta); });
}

void ShardedCube::Set(const Cell& cell, int64_t value) {
  const int s = ShardOf(cell);
  if (obs::Enabled()) ShardedObs::Get().point_writes.Increment();
  WriteShard(s, [&](DynamicDataCube& cube) { cube.Set(cell, value); });
}

void ShardedCube::RangeAdd(const Box& box, int64_t delta) {
  const Mutation m = MakeRangeAdd(box.lo, box.hi, delta);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

void ShardedCube::RangeSet(const Box& box, int64_t value) {
  const Mutation m = MakeRangeSet(box.lo, box.hi, value);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

bool ShardedCube::ApplyBatch(std::span<const Mutation> ops) {
  if (!BatchWellFormed(ops, dims_)) return false;
  if (ops.empty()) return true;
  obs::TraceSpan span("sharded.batch_apply",
                      static_cast<int64_t>(ops.size()));
  // Route every mutation to its shard, in batch order. Batch order within a
  // shard is all the common contract requires: mutations in different
  // shards target different cells and commute, and a range mutation splits
  // into disjoint per-slab pieces that inherit its position in each
  // shard's group.
  RouteScratch<Mutation>& rs = RouteScratch<Mutation>::ThreadLocal();
  rs.Reset(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Mutation& op = ops[i];
    if (!op.is_range()) {
      rs.Route(ShardOf(op.cell), i);
      continue;
    }
    if (RangeIsEmpty(op)) continue;
    const Cell* lo = &op.cell;
    const Cell* hi = &op.hi;
    Box clipped;
    if (op.delta == 0) {
      // A zero range-add is a no-op; a zero range-set only matters where
      // values already live, so clip it to the current overall domain
      // before fanning out slabs (mirrors DynamicDataCube::RangeSet).
      if (op.kind == MutationKind::kRangeAdd) continue;
      clipped = IntersectBoxes(op.box(), Box{DomainLo(), DomainHi()});
      if (clipped.IsEmpty()) continue;
      lo = &clipped.lo;
      hi = &clipped.hi;
    }
    ForEachWritePiece((*lo)[0], (*hi)[0], [&](int shard, Coord lo0,
                                              Coord hi0) {
      if (lo == &op.cell && lo0 == op.cell[0] && hi0 == op.hi[0]) {
        rs.Route(shard, i);  // The whole mutation: routed in place.
        return;
      }
      Mutation& piece = rs.NextPiece();
      piece.cell.assign(lo->begin(), lo->end());
      piece.cell[0] = lo0;
      piece.hi.assign(hi->begin(), hi->end());
      piece.hi[0] = hi0;
      piece.delta = op.delta;
      piece.kind = op.kind;
      rs.Route(shard, ops.size() + rs.pieces_used - 1);
    });
  }
  if (rs.routes.empty()) return true;
  rs.GroupByShard(num_shards_);

  if (obs::Enabled()) ShardedObs::Get().batches.Increment();
  obs::CostLedger* active = obs::ActiveLedger();
  for (int s : rs.touched) {
    const int64_t n = static_cast<int64_t>(rs.Group(s).size());
    if (obs::Enabled()) {
      ShardedObs::Get().batched_ops.Add(n);
      ShardedObs::Get().batch_group_size.Record(n);
    }
    // The fan-out shape, recorded on the calling thread.
    if (active != nullptr) active->shard_subqueries += n;
  }
  if (active != nullptr) {
    active->shard_groups += static_cast<int64_t>(rs.touched.size());
  }

  const std::span<const Mutation> pieces(rs.pieces.data(), rs.pieces_used);
  const auto apply_group = [&](int s) {
    ApplyGroup(s, rs.Group(s), ops, pieces);
  };
  if (ops.size() < kPoolMinBatch) {
    // Below the crossover the caller runs every group itself, in ascending
    // shard order, into its own ledger.
    for (int s : rs.touched) apply_group(s);
    return true;
  }
  // One pool index per touched shard (a single group runs inline on the
  // caller). The caller participates, and a task holds exactly one shard
  // lock and never waits on the pool, so a busy pool delays the groups but
  // cannot deadlock them. The tasks only read the caller's routing scratch.
  // Pool workers do not see the caller's thread-local ledger: each task
  // fills a private slot, merged below.
  std::vector<obs::CostLedger> slots(active != nullptr ? rs.touched.size()
                                                      : 0);
  ThreadPool::Shared().ParallelFor(rs.touched.size(), [&](size_t k) {
    obs::ScopedCostLedger scope(active != nullptr ? &slots[k] : nullptr);
    apply_group(rs.touched[k]);
  });
  for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  return true;
}

void ShardedCube::ApplyGroup(int s, std::span<const uint32_t> group,
                             std::span<const Mutation> ops,
                             std::span<const Mutation> pieces) {
  // The whole group lands under one exclusive hold, which is what makes
  // the batch atomic per shard; the slices only bound the shard cube's
  // per-call scratch.
  WriteShard(s, [&](DynamicDataCube& cube) {
    std::span<const uint32_t> order = group;
    if (group.size() > kApplySlice) {
      // Settle the group's growth before its first slice, so the shard
      // re-roots as one unsliced ApplyBatch would: before any of the
      // group's values land.
      bool points_only = true;
      for (uint32_t ref : group) {
        const Mutation& m =
            ref < ops.size() ? ops[ref] : pieces[ref - ops.size()];
        cube.GrowFor(m);
        points_only = points_only && !m.is_range();
      }
      // Points commute across cells, so only their Z-order changes; a
      // range's position in the group must stay.
      if (points_only) order = ZOrdered(cube, group, ops);
    }
    for (size_t first = 0; first < order.size(); first += kApplySlice) {
      // Routed slices are well formed: the batch was checked up front.
      DDC_CHECK(cube.ApplyBatch(SliceOf(
          order.subspan(first, std::min(kApplySlice, order.size() - first)),
          ops, pieces)));
    }
  });
}

void ShardedCube::ShrinkToFit(int64_t min_side) {
  for (int s = 0; s < num_shards_; ++s) {
    WriteShard(s, [&](DynamicDataCube& cube) { cube.ShrinkToFit(min_side); });
  }
}

// ---------------------------------------------------------------------------
// Readers.

int64_t ShardedCube::Get(const Cell& cell) const {
  const int s = ShardOf(cell);
  if (obs::Enabled()) ShardedObs::Get().point_reads.Increment();
  int64_t result = 0;
  ReadShard(s, [&](const DynamicDataCube& cube) { result = cube.Get(cell); });
  return result;
}

int64_t ShardedCube::PrefixSum(const Cell& cell) const {
  if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  int64_t sum = 0;
  for (int s = 0; s < num_shards_; ++s) {
    // The domain and the sum under one hold: a batch growing the shard's
    // domain downward lands wholly before or after this read.
    ReadShard(s, [&](const DynamicDataCube& cube) {
      sum += cube.RangeSum(Box{cube.DomainLo(), cell});
    });
  }
  return sum;
}

int64_t ShardedCube::RangeSum(const Box& box) const {
  // Each piece is one single-box descent on its shard.
  thread_local Box clip;
  int64_t sum = 0;
  ForEachReadPiece(box, [&](int s, Coord lo0, Coord hi0) {
    const bool whole = lo0 == box.lo[0] && hi0 == box.hi[0];
    if (!whole) ClipInto(clip, box, lo0, hi0);
    ReadShard(s, [&](const DynamicDataCube& cube) {
      sum += cube.RangeSum(whole ? box : clip);
    });
  });
  if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  return sum;
}

void ShardedCube::RangeSumBatch(std::span<const Box> boxes,
                                std::span<int64_t> out) const {
  DDC_CHECK(boxes.size() == out.size());
  if (boxes.empty()) return;
  obs::TraceSpan span("sharded.range_sum_batch",
                      static_cast<int64_t>(boxes.size()));

  // Route the pieces of every box to their shards by index, in box order.
  // Each group is answered with one batched cube call, so corners shared
  // between the batch's boxes dedup inside the shard.
  const size_t n = boxes.size();
  RouteScratch<BoxPiece>& rs = RouteScratch<BoxPiece>::ThreadLocal();
  rs.Reset(n);
  for (size_t q = 0; q < n; ++q) {
    const Box& box = boxes[q];
    ForEachReadPiece(box, [&](int s, Coord lo0, Coord hi0) {
      if (lo0 == box.lo[0] && hi0 == box.hi[0]) {
        rs.Route(s, q);  // The whole box: routed in place.
        return;
      }
      BoxPiece& piece = rs.NextPiece();
      piece.query = q;
      ClipInto(piece.box, box, lo0, hi0);
      rs.Route(s, n + rs.pieces_used - 1);
    });
  }
  if (rs.routes.empty()) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  rs.GroupByShard(num_shards_);
  if (obs::CostLedger* active = obs::ActiveLedger()) {
    // Decomposition shape; the per-shard descents below run on this thread
    // and fold into the same ledger directly.
    active->shard_groups += static_cast<int64_t>(rs.touched.size());
    active->shard_subqueries += static_cast<int64_t>(rs.routes.size());
  }
  if (obs::Enabled()) {
    ShardedObs::Get().range_queries.Add(static_cast<int64_t>(n));
  }

  // A group that is the whole batch, unclipped, reads the caller's boxes;
  // when it is the only group it writes the caller's outputs too.
  const auto whole = [&](std::span<const uint32_t> group) {
    return group.size() == n &&
           std::all_of(group.begin(), group.end(),
                       [n](uint32_t ref) { return ref < n; });
  };
  if (rs.touched.size() == 1 && whole(rs.Group(rs.touched[0]))) {
    ReadShard(rs.touched[0], [&](const DynamicDataCube& cube) {
      cube.RangeSumBatch(boxes, out);
    });
    return;
  }
  struct Buffers {
    std::vector<Box> gather;
    std::vector<int64_t> partial;
  };
  thread_local Buffers buf;
  const std::span<const BoxPiece> pieces(rs.pieces.data(), rs.pieces_used);
  std::fill(out.begin(), out.end(), 0);
  for (int s : rs.touched) {
    const std::span<const uint32_t> group = rs.Group(s);
    std::span<const Box> in = boxes;
    if (!whole(group)) {
      if (buf.gather.size() < group.size()) buf.gather.resize(group.size());
      for (size_t k = 0; k < group.size(); ++k) {
        CopyInto(buf.gather[k], group[k] < n ? boxes[group[k]]
                                             : pieces[group[k] - n].box);
      }
      in = std::span<const Box>(buf.gather.data(), group.size());
    }
    buf.partial.resize(group.size());
    ReadShard(s, [&](const DynamicDataCube& cube) {
      cube.RangeSumBatch(in, buf.partial);
    });
    for (size_t k = 0; k < group.size(); ++k) {
      out[group[k] < n ? group[k] : pieces[group[k] - n].query] +=
          buf.partial[k];
    }
  }
}

int64_t ShardedCube::TotalSum() const {
  if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  int64_t sum = 0;
  for (int s = 0; s < num_shards_; ++s) {
    ReadShard(s, [&](const DynamicDataCube& cube) { sum += cube.TotalSum(); });
  }
  return sum;
}

int64_t ShardedCube::StorageCells() const {
  int64_t sum = 0;
  for (int s = 0; s < num_shards_; ++s) {
    ReadShard(s, [&](const DynamicDataCube& cube) {
      sum += cube.StorageCells();
    });
  }
  return sum;
}

DdcStats ShardedCube::Stats() const {
  DdcStats total;
  for (int s = 0; s < num_shards_; ++s) {
    ReadShard(s, [&](const DynamicDataCube& cube) { total += cube.Stats(); });
  }
  return total;
}

Cell ShardedCube::DomainLo() const {
  Cell lo;
  for (int s = 0; s < num_shards_; ++s) {
    ReadShard(s, [&](const DynamicDataCube& cube) {
      lo = s == 0 ? cube.DomainLo() : CellMin(lo, cube.DomainLo());
    });
  }
  return lo;
}

Cell ShardedCube::DomainHi() const {
  Cell hi;
  for (int s = 0; s < num_shards_; ++s) {
    ReadShard(s, [&](const DynamicDataCube& cube) {
      hi = s == 0 ? cube.DomainHi() : CellMax(hi, cube.DomainHi());
    });
  }
  return hi;
}

void ShardedCube::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  // Ascending acquisition: every other path holds at most one shard lock,
  // so no lock-order cycle can form, and two concurrent walks queue behind
  // each other's writers in the same order.
  std::vector<std::shared_lock<ShardMutex>> locks;
  locks.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    locks.emplace_back(shards_[static_cast<size_t>(s)].mutex);
    ShardDelayFaultSite();
  }
  for (int s = 0; s < num_shards_; ++s) {
    shards_[static_cast<size_t>(s)].cube->ForEachNonZero(fn);
  }
}

int64_t ShardedCube::ReRootEpoch() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards_; ++s) {
    total += shards_[static_cast<size_t>(s)].reroots.load();
  }
  return total;
}

}  // namespace ddc
