#include "concurrent/sharded_cube.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

// Process-wide mirrors of the per-shard ConcurrentOpStats fields: per-shard
// structs keep write paths contention-free, the registry carries the
// unified account the renderers and `ddctool stats` read. Resolved once.
// Every counter here is deterministic for a fixed single-threaded workload
// (`ddctool stats` relies on it).
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

DdcOptions WithoutCounters(DdcOptions options) {
  options.enable_counters = false;
  return options;
}

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
  into.nodes_visited += from.nodes_visited;
  into.values_read += from.values_read;
  into.values_written += from.values_written;
  into.face_lookups += from.face_lookups;
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

}  // namespace

// Over-aligned so two shards never share a cache line; the stats get
// their own line because every op bumps them.
struct alignas(128) ShardedCube::Shard {
  mutable ShardMutex mutex;
  std::unique_ptr<DynamicDataCube> cube;
  // Ops accounted to this shard (cross-shard ops bill their lowest
  // touched shard); aggregated by ShardedCube::stats(). `stats.reroots`
  // doubles as the shard's re-root epoch mirror: WriteShard copies
  // cube->ReRootEpoch() into it before releasing the exclusive lock.
  alignas(64) mutable ConcurrentOpStats stats;
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
    shard.cube = std::make_unique<DynamicDataCube>(dims, initial_side,
                                                   WithoutCounters(options));
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

std::vector<ShardedCube::SubQuery> ShardedCube::Decompose(
    const Box& box) const {
  std::vector<SubQuery> sub;
  if (box.IsEmpty()) return sub;
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  const int64_t span = slab_hi - slab_lo + 1;
  if (span >= num_shards_) {
    // Every shard owns slabs inside the box; clipping along dimension 0
    // buys nothing (each shard's cube only holds its own cells anyway).
    sub.reserve(static_cast<size_t>(num_shards_));
    for (int s = 0; s < num_shards_; ++s) {
      sub.push_back({s, box});
    }
    return sub;
  }
  // Fewer slabs than shards: each intersecting slab belongs to a distinct
  // shard. Clip the sub-box to the slab so the shard query touches only the
  // relevant part of its domain.
  sub.reserve(static_cast<size_t>(span));
  for (int64_t slab = slab_lo; slab <= slab_hi; ++slab) {
    SubQuery q;
    q.shard = static_cast<int>(FloorMod(slab, num_shards_));
    q.box = box;
    q.box.lo[0] = std::max<Coord>(box.lo[0], slab * slab_width_);
    q.box.hi[0] = std::min<Coord>(box.hi[0], slab * slab_width_ +
                                                 slab_width_ - 1);
    sub.push_back(std::move(q));
  }
  // Ascending shard index: the lock and billing order.
  std::sort(sub.begin(), sub.end(),
            [](const SubQuery& a, const SubQuery& b) {
              return a.shard < b.shard;
            });
  return sub;
}

std::vector<ShardedCube::SubQuery> ShardedCube::DecomposeWrite(
    const Box& box) const {
  std::vector<SubQuery> sub;
  if (box.IsEmpty()) return sub;
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  sub.reserve(static_cast<size_t>(
      std::min<int64_t>(slab_hi - slab_lo + 1, 64)));
  for (int64_t slab = slab_lo; slab <= slab_hi; ++slab) {
    const int shard = static_cast<int>(FloorMod(slab, num_shards_));
    const Coord lo0 = std::max<Coord>(box.lo[0], slab * slab_width_);
    const Coord hi0 =
        std::min<Coord>(box.hi[0], slab * slab_width_ + slab_width_ - 1);
    // Adjacent slabs of the same shard (only possible with one shard)
    // merge into a single sub-box.
    if (!sub.empty() && sub.back().shard == shard &&
        sub.back().box.hi[0] + 1 == lo0) {
      sub.back().box.hi[0] = hi0;
      continue;
    }
    SubQuery q;
    q.shard = shard;
    q.box = box;
    q.box.lo[0] = lo0;
    q.box.hi[0] = hi0;
    sub.push_back(std::move(q));
  }
  return sub;
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
  const int64_t seen = shard.stats.reroots.load();
  if (epoch != seen) {
    shard.stats.reroots.store(epoch);
    if (obs::Enabled()) ShardedObs::Get().reroots.Add(epoch - seen);
  }
}

// ---------------------------------------------------------------------------
// Writers.

void ShardedCube::Add(const Cell& cell, int64_t delta) {
  const int s = ShardOf(cell);
  shards_[static_cast<size_t>(s)].stats.point_writes.fetch_add(
      1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().point_writes.Increment();
  WriteShard(s, [&](DynamicDataCube& cube) { cube.Add(cell, delta); });
}

void ShardedCube::Set(const Cell& cell, int64_t value) {
  const int s = ShardOf(cell);
  shards_[static_cast<size_t>(s)].stats.point_writes.fetch_add(
      1, std::memory_order_relaxed);
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
  // Group the mutations by shard; batch order is preserved within each
  // group, which is all the common contract requires (mutations in
  // different shards target different cells and commute; a range mutation
  // splits into disjoint per-shard sub-boxes that inherit its position in
  // each shard's group).
  std::vector<MutationBatch> groups(static_cast<size_t>(num_shards_));
  for (const Mutation& op : ops) {
    if (!op.is_range()) {
      groups[static_cast<size_t>(ShardOf(op.cell))].push_back(op);
      continue;
    }
    Box box = op.box();
    if (box.IsEmpty()) continue;
    if (op.delta == 0) {
      // A zero range-add is a no-op; a zero range-set only matters where
      // values already live, so clip it to the current overall domain
      // before fanning out slabs (mirrors DynamicDataCube::RangeSet).
      if (op.kind == MutationKind::kRangeAdd) continue;
      box = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
      if (box.IsEmpty()) continue;
    }
    for (const SubQuery& q : DecomposeWrite(box)) {
      Mutation sub = op;
      sub.cell = q.box.lo;
      sub.hi = q.box.hi;
      groups[static_cast<size_t>(q.shard)].push_back(std::move(sub));
    }
  }
  std::vector<int> touched;  // Ascending shard index.
  for (int s = 0; s < num_shards_; ++s) {
    if (!groups[static_cast<size_t>(s)].empty()) touched.push_back(s);
  }
  if (touched.empty()) return true;

  // The batch itself is billed once, to its lowest touched shard; the op
  // count is billed where the ops landed.
  shards_[static_cast<size_t>(touched[0])].stats.batches.fetch_add(
      1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().batches.Increment();
  for (int s : touched) {
    const int64_t n =
        static_cast<int64_t>(groups[static_cast<size_t>(s)].size());
    shards_[static_cast<size_t>(s)].stats.batched_ops.fetch_add(
        n, std::memory_order_relaxed);
    if (obs::Enabled()) {
      ShardedObs::Get().batched_ops.Add(n);
      ShardedObs::Get().batch_group_size.Record(n);
    }
  }
  obs::CostLedger* active = obs::ActiveLedger();
  if (active != nullptr) {
    // The fan-out shape, recorded on the calling thread.
    active->shard_groups += static_cast<int64_t>(touched.size());
    for (int s : touched) {
      active->shard_subqueries +=
          static_cast<int64_t>(groups[static_cast<size_t>(s)].size());
    }
  }

  // Each group lands whole under its shard's exclusive lock, which is what
  // makes the batch atomic per shard.
  const auto apply_group = [&](size_t k) {
    const size_t s = static_cast<size_t>(touched[k]);
    WriteShard(touched[k], [&](DynamicDataCube& cube) {
      cube.ApplyBatch(groups[s]);
    });
  };
  if (ops.size() < kPoolMinBatch) {
    // Below the crossover the caller runs every group itself, in ascending
    // shard order, into its own ledger.
    for (size_t k = 0; k < touched.size(); ++k) apply_group(k);
    return true;
  }
  // One pool index per touched shard (a single group runs inline on the
  // caller). The caller participates, and a task holds exactly one shard
  // lock and never waits on the pool, so a busy pool delays the groups but
  // cannot deadlock them. Pool workers do not see the caller's thread-local
  // ledger: each task fills a private slot, merged below.
  std::vector<obs::CostLedger> slots(active != nullptr ? touched.size() : 0);
  ThreadPool::Shared().ParallelFor(touched.size(), [&](size_t k) {
    obs::ScopedCostLedger scope(active != nullptr ? &slots[k] : nullptr);
    apply_group(k);
  });
  for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  return true;
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
  shards_[static_cast<size_t>(s)].stats.point_reads.fetch_add(
      1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().point_reads.Increment();
  int64_t result = 0;
  ReadShard(s, [&](const DynamicDataCube& cube) { result = cube.Get(cell); });
  return result;
}

int64_t ShardedCube::PrefixSum(const Cell& cell) const {
  return RangeSum(Box{DomainLo(), cell});
}

int64_t ShardedCube::RangeSum(const Box& box) const {
  // Each piece is one single-box descent on its shard, as in
  // ConcurrentCube::RangeSum.
  int64_t sum = 0;
  const auto sum_piece = [this, &sum](int s, const Box& piece) {
    ReadShard(s, [&](const DynamicDataCube& cube) {
      sum += cube.RangeSum(piece);
    });
  };
  const auto bill = [this](int s) {
    shards_[static_cast<size_t>(s)].stats.range_queries.fetch_add(
        1, std::memory_order_relaxed);
    if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  };
  if (!box.IsEmpty() && SlabIndex(box.lo[0]) == SlabIndex(box.hi[0])) {
    // Single-slab fast path, the read-heavy common case: no decomposition
    // vector.
    const int s = static_cast<int>(FloorMod(SlabIndex(box.lo[0]), num_shards_));
    bill(s);
    sum_piece(s, box);
    return sum;
  }
  const std::vector<SubQuery> sub = Decompose(box);
  bill(sub.empty() ? 0 : sub[0].shard);
  for (const SubQuery& q : sub) sum_piece(q.shard, q.box);
  return sum;
}

void ShardedCube::RangeSumBatch(std::span<const Box> boxes,
                                std::span<int64_t> out) const {
  DDC_CHECK(boxes.size() == out.size());
  if (boxes.empty()) return;
  obs::TraceSpan span("sharded.range_sum_batch",
                      static_cast<int64_t>(boxes.size()));

  // Bucket the sub-queries of every box by owning shard. Each bucket is
  // answered with one batched cube call, so corners shared between the
  // batch's boxes dedup inside the shard.
  struct ShardWork {
    std::vector<Box> boxes;
    std::vector<size_t> query;  // Parallel: which output each box feeds.
    std::vector<int64_t> partial;
  };
  std::vector<ShardWork> work(static_cast<size_t>(num_shards_));
  for (size_t q = 0; q < boxes.size(); ++q) {
    out[q] = 0;
    for (SubQuery& sub : Decompose(boxes[q])) {
      ShardWork& w = work[static_cast<size_t>(sub.shard)];
      w.boxes.push_back(std::move(sub.box));
      w.query.push_back(q);
    }
  }
  std::vector<int> shard_ids;  // Ascending: the lock and reporting order.
  for (int s = 0; s < num_shards_; ++s) {
    ShardWork& w = work[static_cast<size_t>(s)];
    if (w.boxes.empty()) continue;
    w.partial.resize(w.boxes.size());
    shard_ids.push_back(s);
  }
  if (shard_ids.empty()) return;
  if (obs::CostLedger* active = obs::ActiveLedger()) {
    // Decomposition shape; the per-shard descents below run on this thread
    // and fold into the same ledger directly.
    active->shard_groups += static_cast<int64_t>(shard_ids.size());
    for (int s : shard_ids) {
      active->shard_subqueries +=
          static_cast<int64_t>(work[static_cast<size_t>(s)].boxes.size());
    }
  }

  ConcurrentOpStats& billing =
      shards_[static_cast<size_t>(shard_ids[0])].stats;
  billing.range_queries.fetch_add(static_cast<int64_t>(boxes.size()),
                                  std::memory_order_relaxed);
  if (obs::Enabled()) {
    ShardedObs::Get().range_queries.Add(static_cast<int64_t>(boxes.size()));
  }

  for (int s : shard_ids) {
    ShardWork& w = work[static_cast<size_t>(s)];
    ReadShard(s, [&](const DynamicDataCube& cube) {
      cube.RangeSumBatch(w.boxes, w.partial);
    });
    for (size_t i = 0; i < w.boxes.size(); ++i) {
      out[w.query[i]] += w.partial[i];
    }
  }
}

int64_t ShardedCube::TotalSum() const {
  shards_[0].stats.range_queries.fetch_add(1, std::memory_order_relaxed);
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
    total += shards_[static_cast<size_t>(s)].stats.reroots.load();
  }
  return total;
}

ConcurrentOpStats::Snapshot ShardedCube::stats() const {
  ConcurrentOpStats::Snapshot total{};
  for (int s = 0; s < num_shards_; ++s) {
    const ConcurrentOpStats::Snapshot part =
        shards_[static_cast<size_t>(s)].stats.Read();
    total.point_writes += part.point_writes;
    total.batches += part.batches;
    total.batched_ops += part.batched_ops;
    total.point_reads += part.point_reads;
    total.range_queries += part.range_queries;
    total.reroots += part.reroots;
  }
  return total;
}

}  // namespace ddc
