// CachedCube: a workload-adaptive query-result cache over any cube.
//
// Heavy read traffic is repetitive — the WorkloadRecorder heatmaps show a
// handful of hot ranges dominating real mixes — so re-descending the tree
// for a box the cube answered a moment ago is wasted work. CachedCube wraps
// a backing cube behind the common CubeInterface and memoizes RangeSum /
// RangeSumBatch results in a bounded table keyed by the *canonicalized*
// query box (clipped to a domain snapshot, FNV-fingerprinted, exact-box
// verified on probe). The steady-state hit path is one hash probe under a
// short critical section instead of a polylog descent.
//
// Correctness is carried by precise, mutation-driven invalidation
// (DESIGN.md §16): every write enters through the unified mutation pipeline
// (Set/Add/RangeAdd/RangeSet/ApplyBatch all reduce to a Mutation span), and
// *before* the backing cube applies it the cache computes the batch's dirty
// boxes (common/mutation.h) and evicts exactly the overlapping entries —
// disjoint entries survive, which the invalidation property suite asserts
// as an exact eviction count. Structural events flush wholesale: any
// re-root of the backing cube (growth or shrink) empties the cache and
// re-snapshots the domain. The cache notices one by polling the backing
// cube's ReRootEpoch() under its mutex after every wrapper write and at the
// top of every probe, so a re-root caused by a writer that bypassed the
// wrapper is flushed before the next read too. Any batch whose dirty
// bounds escape the snapshot domain flushes as well (the write may grow
// the cube mid-apply, so clip-based keys made before it cannot be trusted
// afterwards).
//
// Self-tuning hot ranges: AdoptHotRanges() pulls the top-K read sketch from
// obs::WorkloadRecorder and *pins* those boxes. Pinned entries are not
// evicted by overlapping additive mutations — the mutation's contribution
// (delta, or delta * |overlap| for a range-add) is patched into the cached
// sum instead, so a hot range stays resident across point-update traffic.
// Assigning kinds (kSet/kRangeSet) destroy information the cache does not
// hold, so they evict and unpin like any other entry.
//
// Composition and threading: the wrapper borrows any CubeInterface and
// inherits its thread-safety. Over a DynamicDataCube it is single-threaded
// like the cube itself. Over a thread-safe backing cube (ShardedCube, at
// any shard count) it is fully thread-safe: cache state sits under one
// mutex, and a pending-writer count plus a generation counter form the
// insert guard — a miss computed concurrently with any writer or flush is
// returned to the caller but never inserted, which closes the classic
// stale-insert race without locking the backing cube's reads. All writes
// MUST flow through the wrapper (or be reported via InvalidateBatch);
// writing to the backing cube directly leaves stale entries by
// construction.
//
// The cache is never durable: it subscribes to no WAL and is rebuilt cold
// after a crash/restart — tools/crashloop.sh kills processes mid-
// invalidation to prove recovery never depends on cache state.

#ifndef DDC_CACHE_CACHED_CUBE_H_
#define DDC_CACHE_CACHED_CUBE_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/range.h"

namespace ddc {

struct CachedCubeOptions {
  // Maximum live entries; at capacity a CLOCK (second-chance) sweep evicts
  // the first unreferenced, unpinned slot. Clamped to >= 2.
  size_t capacity = 1024;
  // Maximum pinned (hot-materialized) entries; clamped to capacity / 2 so
  // the CLOCK sweep always finds an evictable slot.
  size_t max_pinned = 8;
};

// Point-in-time cache statistics (per instance; the registry's cache.*
// family aggregates across instances). All counts are since construction.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t insert_failures = 0;  // cache.insert.fail degradations.
  int64_t evicted = 0;          // Capacity (CLOCK) evictions only.
  int64_t invalidated = 0;      // Precise overlap evictions only.
  int64_t patched = 0;          // Additive deltas folded into pinned sums.
  int64_t pins = 0;             // Entries pinned by AdoptHotRanges.
  int64_t flushes = 0;          // Wholesale clears (re-root, escape, Flush).
  int64_t entries = 0;          // Live entries right now.
  int64_t pinned_entries = 0;   // Live pinned entries right now.
};

class CachedCube : public CubeInterface {
 public:
  // Borrows `cube`, which must outlive the wrapper.
  explicit CachedCube(CubeInterface* cube, CachedCubeOptions options = {});

  CachedCube(const CachedCube&) = delete;
  CachedCube& operator=(const CachedCube&) = delete;

  // CubeInterface. Reads serve from the cache where possible; writes
  // invalidate precisely, then forward to the backing cube.
  int dims() const override { return dims_; }
  Cell DomainLo() const override;
  Cell DomainHi() const override;
  void Set(const Cell& cell, int64_t value) override;
  void Add(const Cell& cell, int64_t delta) override;
  int64_t Get(const Cell& cell) const override;
  void RangeAdd(const Box& box, int64_t delta) override;
  void RangeSet(const Box& box, int64_t value) override;
  bool ApplyBatch(std::span<const Mutation> batch) override;
  int64_t PrefixSum(const Cell& cell) const override;
  int64_t RangeSum(const Box& box) const override;
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override;
  int64_t StorageCells() const override;
  std::string name() const override;
  // Forwarded, so a layer stacked on the cache sees the backing re-roots.
  int64_t ReRootEpoch() const override;
  // Forwards to the backing cube's shrink; the resulting re-root flushes
  // the cache.
  void ShrinkToFit(int64_t min_side = 2) override;
  // Prints the cache line (entries, pinned, hits, misses), then the
  // backing cube's plan. The backing plan describes the miss path: a
  // resident entry skips the descent entirely, which EXPLAIN ANALYZE's
  // cache probes/hits report.
  void ExplainPlan(std::span<const Box> rows, std::ostream& os) const override;

  // Empties the cache (pinned entries included) and re-snapshots the
  // domain on next use. Counted in CacheStats::flushes.
  void Flush();

  // Reports externally applied mutations (e.g. a durability layer that
  // writes the backing cube directly): runs exactly the precise
  // invalidation pass a wrapper write would, without applying anything.
  // Malformed batches invalidate nothing, mirroring ApplyBatch's reject.
  void InvalidateBatch(std::span<const Mutation> batch);

  // Pulls obs::WorkloadRecorder::Default()'s hot-read sketch and pins the
  // nominated boxes (computing any missing sums through the backing cube),
  // up to options.max_pinned. Returns the number of entries newly pinned.
  // No-op when population is disabled (ScopedNoPopulate) or obs is off.
  int AdoptHotRanges();

  CacheStats Stats() const;

  // The backing cube (never nullptr).
  const CubeInterface* inner() const { return inner_; }

  // While alive on this thread, probes still count hits/misses but misses
  // are never inserted and AdoptHotRanges is inert — the EXPLAIN ANALYZE
  // contract that an explained statement never populates the cache.
  class ScopedNoPopulate {
   public:
    ScopedNoPopulate();
    ~ScopedNoPopulate();
    ScopedNoPopulate(const ScopedNoPopulate&) = delete;
    ScopedNoPopulate& operator=(const ScopedNoPopulate&) = delete;
  };

 private:
  struct Entry {
    uint64_t fp = 0;
    Box box;
    // box.lo/hi in dims 0 and 1 (0 when dims == 1), kept inline so the
    // invalidation scan reads them from the slot array instead of chasing
    // the box's two heap Cells per live entry. Set by SetBox.
    Coord lo0 = 0, hi0 = 0, lo1 = 0, hi1 = 0;
    int64_t value = 0;
    bool live = false;
    bool pinned = false;
    uint8_t ref = 0;  // CLOCK second-chance bit.
  };

  // Stores `box` in `e`, with its inline dims-0/1 copy.
  void SetBox(Entry& e, const Box& box) const;
  // BoxesOverlap(e.box, box), with dims 0 and 1 read inline.
  bool EntryOverlaps(const Entry& e, const Box& box) const;

  // True while population is disabled on this thread.
  static bool PopulationDisabled();

  // Clips `box` to the domain snapshot (refreshing a stale snapshot
  // first) into `*out`, reusing its storage. The canonical box is the
  // cache key; cells it drops are outside the backing domain and hence
  // zero, so its sum equals the query's.
  void CanonicalLocked(const Box& box, Box* out) const;
  void RefreshDomainLocked() const;
  uint64_t FingerprintBox(const Box& box) const;

  // Probe for `canonical` (exact-box verify behind the fingerprint).
  // Returns the slot index or -1.
  int64_t LookupLocked(const Box& canonical, uint64_t fp) const;
  // Inserts (or overwrites the fingerprint's slot with) `canonical` ->
  // `value`, evicting via CLOCK when full. Honors cache.insert.fail.
  // Returns whether the value is resident afterwards.
  bool InsertLocked(const Box& canonical, uint64_t fp, int64_t value,
                    bool pinned) const;
  void EvictSlotLocked(size_t slot) const;
  void FlushLocked() const;
  // Flushes (and marks the domain snapshot stale) when the backing cube's
  // ReRootEpoch() moved since the last poll.
  void PollReRootLocked() const;

  // The precise invalidation pass: evicts every live entry overlapping any
  // dirty box of `batch`; patches pinned entries for additive kinds
  // instead. A batch whose dirty bounds escape the domain snapshot flushes
  // wholesale (the write may grow the cube). Caller holds mu_.
  void InvalidateLocked(std::span<const Mutation> batch);
  // Existence test against the per-batch overlap index built by
  // InvalidateLocked (point_index_ / range_boxes_): does any mutation in
  // the current batch dirty `e`'s box? Caller holds mu_.
  bool EntryOverlapsBatchLocked(const Entry& e) const;

  // Write bracket. Prologue bumps the pending-writer count and runs
  // invalidation *before* the backing apply (apply-first would open a
  // stale-hit window); epilogue drops it, advances the generation, and
  // polls the backing cube for re-roots.
  void WritePrologue(std::span<const Mutation> batch);
  void WriteEpilogue();

  // Serves one range sum: probe, then compute-and-maybe-insert on a miss.
  int64_t CachedRangeSum(const Box& box) const;

  // Registry mirrors (no-ops when obs is disabled).
  void RecordHit(const Box& canonical) const;
  void RecordMiss() const;
  void UpdateHitRatioLocked() const;

  CubeInterface* inner_;
  int dims_;

  CachedCubeOptions options_;

  // All cache state below mu_. The mutex is held only for probe/insert/
  // invalidate bookkeeping — never across a backing-cube descent.
  mutable std::mutex mu_;
  mutable std::vector<Entry> slots_;
  mutable std::vector<uint32_t> free_;
  mutable std::unordered_map<uint64_t, uint32_t> index_;  // fp -> slot.
  mutable size_t clock_hand_ = 0;
  mutable size_t live_ = 0;
  mutable size_t pinned_live_ = 0;

  // Domain snapshot the canonicalizer clips against; refreshed lazily
  // after a flush marks it stale.
  mutable Cell domain_lo_;
  mutable Cell domain_hi_;
  mutable bool domain_stale_ = true;
  // Probe-key scratch (guarded by mu_): a hit is served without
  // allocating; only a miss copies the key out to compute and insert.
  mutable Box probe_box_;

  // Insert guard: misses snapshot `gen_` at probe time and insert only if
  // no writer is pending and the generation is unchanged.
  mutable uint64_t gen_ = 0;
  mutable int64_t pending_writers_ = 0;

  // The backing cube's ReRootEpoch() at the last poll.
  mutable int64_t seen_epoch_ = 0;

  // Per-batch overlap index, rebuilt at the top of every InvalidateLocked
  // and valid only inside it (kept as members so the scratch capacity
  // survives across batches instead of reallocating). Point mutations are
  // counting-bucketed by cell[0] over the batch's dirty-bounds extent
  // (two O(n) passes — a comparison sort was the single biggest term of
  // the write-path toll) with the first two coordinates inlined, so the
  // per-entry probe scans contiguous memory and only chases the
  // Mutation's cell for dims > 2. Range mutations as precomputed dirty
  // boxes.
  struct BatchPoint {
    Coord c0;
    Coord c1;  // 0 when dims == 1.
    const Mutation* m;
  };
  static constexpr size_t kInvalBuckets = 64;
  size_t BucketOf(Coord c0) const;
  // Which of 64 equal bands of the batch's c1 extent holds `c1`.
  size_t BandOf(Coord c1) const;
  std::vector<BatchPoint> point_index_;   // Bucket-ordered.
  std::vector<BatchPoint> point_scratch_;
  uint32_t bucket_start_[kInvalBuckets + 1] = {};
  Coord bucket_base_ = 0;
  int64_t bucket_extent_ = 1;
  uint64_t bucket_scale_ = 0;  // kInvalBuckets * 2^32 / bucket_extent_.
  uint64_t bucket_bands_[kInvalBuckets] = {};  // Bit k: a point in band k.
  Coord band_base_ = 0;
  int64_t band_extent_ = 1;
  uint64_t band_scale_ = 0;  // 64 * 2^32 / band_extent_.
  std::vector<Box> range_boxes_;

  mutable CacheStats stats_;
};

}  // namespace ddc

#endif  // DDC_CACHE_CACHED_CUBE_H_
