#include "cache/cached_cube.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "fault/failpoint.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/workload_recorder.h"

namespace ddc {

namespace {

// Registry mirrors of the per-instance CacheStats fields (DESIGN.md §16;
// the reserved cache.* family). Counters aggregate across every CachedCube
// in the process; the per-instance numbers live in Stats().
obs::Counter& HitsCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.hits");
  return c;
}
obs::Counter& MissesCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.misses");
  return c;
}
obs::Counter& InsertsCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.inserts");
  return c;
}
obs::Counter& EvictedCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.evicted");
  return c;
}
obs::Counter& InvalidatedCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.invalidated");
  return c;
}
obs::Counter& PatchedCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.patched");
  return c;
}
obs::Counter& PinnedCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.pinned");
  return c;
}
obs::Counter& FlushesCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("cache.flushes");
  return c;
}
obs::Gauge& HitRatioGauge() {
  static obs::Gauge& g =
      *obs::MetricsRegistry::Default().GetGauge("cache.hit_ratio");
  return g;
}

thread_local int g_no_populate_depth = 0;

}  // namespace

CachedCube::ScopedNoPopulate::ScopedNoPopulate() { ++g_no_populate_depth; }
CachedCube::ScopedNoPopulate::~ScopedNoPopulate() { --g_no_populate_depth; }

bool CachedCube::PopulationDisabled() { return g_no_populate_depth > 0; }

CachedCube::CachedCube(CubeInterface* cube, CachedCubeOptions options)
    : inner_(cube),
      dims_(cube->dims()),
      options_(options),
      seen_epoch_(cube->ReRootEpoch()) {
  options_.capacity = std::max<size_t>(options_.capacity, 2);
  options_.max_pinned =
      std::min(options_.max_pinned, options_.capacity / 2);
  slots_.resize(options_.capacity);
  free_.reserve(options_.capacity);
  for (size_t i = options_.capacity; i > 0; --i) {
    free_.push_back(static_cast<uint32_t>(i - 1));
  }
}

Cell CachedCube::DomainLo() const { return inner_->DomainLo(); }
Cell CachedCube::DomainHi() const { return inner_->DomainHi(); }

int64_t CachedCube::Get(const Cell& cell) const { return inner_->Get(cell); }

int64_t CachedCube::PrefixSum(const Cell& cell) const {
  return inner_->PrefixSum(cell);
}

int64_t CachedCube::StorageCells() const { return inner_->StorageCells(); }

std::string CachedCube::name() const {
  return "cached(" + inner_->name() + ")";
}

int64_t CachedCube::ReRootEpoch() const { return inner_->ReRootEpoch(); }

void CachedCube::PollReRootLocked() const {
  // A re-root rebuilds the tree wholesale, so every clip-canonicalized key
  // minted against the old domain is suspect.
  const int64_t epoch = inner_->ReRootEpoch();
  if (epoch == seen_epoch_) return;
  seen_epoch_ = epoch;
  FlushLocked();
  domain_stale_ = true;
  ++gen_;
}

void CachedCube::RefreshDomainLocked() const {
  domain_lo_ = inner_->DomainLo();
  domain_hi_ = inner_->DomainHi();
  domain_stale_ = false;
}

Box CachedCube::CanonicalLocked(const Box& box) const {
  DDC_DCHECK(box.lo.size() == static_cast<size_t>(dims_));
  DDC_DCHECK(box.hi.size() == static_cast<size_t>(dims_));
  if (domain_stale_) RefreshDomainLocked();
  return IntersectBoxes(box, Box{domain_lo_, domain_hi_});
}

uint64_t CachedCube::FingerprintBox(const Box& box) const {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime.
  };
  mix(static_cast<uint64_t>(dims_));
  for (const Coord c : box.lo) mix(static_cast<uint64_t>(c));
  for (const Coord c : box.hi) mix(static_cast<uint64_t>(c));
  return h;
}

int64_t CachedCube::LookupLocked(const Box& canonical, uint64_t fp) const {
  const auto it = index_.find(fp);
  if (it == index_.end()) return -1;
  const Entry& e = slots_[it->second];
  // Exact-box verify behind the fingerprint: a colliding box is a miss
  // (and its insert will overwrite this slot, keeping fp -> slot 1:1).
  if (!e.live || e.box.lo != canonical.lo || e.box.hi != canonical.hi) {
    return -1;
  }
  return static_cast<int64_t>(it->second);
}

void CachedCube::EvictSlotLocked(size_t slot) const {
  Entry& e = slots_[slot];
  DDC_DCHECK(e.live);
  index_.erase(e.fp);
  if (e.pinned) --pinned_live_;
  e.live = false;
  e.pinned = false;
  e.ref = 0;
  --live_;
  free_.push_back(static_cast<uint32_t>(slot));
}

void CachedCube::FlushLocked() const {
  for (Entry& e : slots_) {
    e.live = false;
    e.pinned = false;
    e.ref = 0;
  }
  index_.clear();
  free_.clear();
  for (size_t i = slots_.size(); i > 0; --i) {
    free_.push_back(static_cast<uint32_t>(i - 1));
  }
  live_ = 0;
  pinned_live_ = 0;
  clock_hand_ = 0;
  ++stats_.flushes;
  if (obs::Enabled()) FlushesCounter().Increment();
}

bool CachedCube::InsertLocked(const Box& canonical, uint64_t fp,
                              int64_t value, bool pinned) const {
  // Allocation failure during insert degrades to a normal miss: the probe
  // already returned the freshly computed value, so skipping the insert
  // changes nothing but future hit rates. State is untouched.
  if (DDC_FAULTPOINT("cache.insert.fail")) {
    ++stats_.insert_failures;
    return false;
  }
  const auto it = index_.find(fp);
  if (it != index_.end()) {
    // Same canonical box recomputed (value refresh) or a fingerprint
    // collision (the old box loses its slot) — either way the slot now
    // carries this box.
    Entry& e = slots_[it->second];
    const bool same_box =
        e.box.lo == canonical.lo && e.box.hi == canonical.hi;
    if (e.pinned && !same_box) {
      --pinned_live_;
      e.pinned = false;
    }
    e.box = canonical;
    e.value = value;
    e.ref = 1;
    if (pinned && !e.pinned && pinned_live_ < options_.max_pinned) {
      e.pinned = true;
      ++pinned_live_;
      ++stats_.pins;
      if (obs::Enabled()) PinnedCounter().Increment();
    }
    return true;
  }

  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    // CLOCK second-chance sweep: first pass clears reference bits, second
    // pass must find an unpinned victim (max_pinned <= capacity / 2).
    const size_t n = slots_.size();
    size_t victim = n;
    for (size_t scanned = 0; scanned < 2 * n; ++scanned) {
      Entry& c = slots_[clock_hand_];
      clock_hand_ = (clock_hand_ + 1) % n;
      if (!c.live || c.pinned) continue;
      if (c.ref != 0) {
        c.ref = 0;
        continue;
      }
      victim = (clock_hand_ == 0 ? n : clock_hand_) - 1;
      break;
    }
    if (victim == n) {
      ++stats_.insert_failures;
      return false;
    }
    EvictSlotLocked(victim);
    ++stats_.evicted;
    if (obs::Enabled()) EvictedCounter().Increment();
    slot = free_.back();
    free_.pop_back();
  }

  Entry& e = slots_[slot];
  e.fp = fp;
  e.box = canonical;
  e.value = value;
  e.live = true;
  e.ref = 1;
  e.pinned = false;
  index_[fp] = static_cast<uint32_t>(slot);
  ++live_;
  ++stats_.inserts;
  if (obs::Enabled()) InsertsCounter().Increment();
  if (pinned && pinned_live_ < options_.max_pinned) {
    e.pinned = true;
    ++pinned_live_;
    ++stats_.pins;
    if (obs::Enabled()) PinnedCounter().Increment();
  }
  return true;
}

void CachedCube::UpdateHitRatioLocked() const {
  if (!obs::Enabled()) return;
  const int64_t total = stats_.hits + stats_.misses;
  HitRatioGauge().Set(total == 0 ? 0 : stats_.hits * 1000 / total);
}

void CachedCube::RecordHit(const Box& canonical) const {
  ++stats_.hits;
  if (auto* ledger = obs::ActiveLedger()) {
    ++ledger->cache_probes;
    ++ledger->cache_hits;
  }
  if (obs::Enabled()) {
    HitsCounter().Increment();
    // The backing cube records reads it executes into the workload sketch;
    // a hit skips the cube, so record here — otherwise a range would fall
    // out of the hot list the moment the cache starts serving it.
    obs::WorkloadRecorder::Default().RecordRead(
        canonical.lo.data(), canonical.hi.data(), dims_);
  }
}

void CachedCube::RecordMiss() const {
  ++stats_.misses;
  if (auto* ledger = obs::ActiveLedger()) ++ledger->cache_probes;
  if (obs::Enabled()) MissesCounter().Increment();
}

int64_t CachedCube::CachedRangeSum(const Box& box) const {
  Box canonical;
  uint64_t fp = 0;
  uint64_t probe_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PollReRootLocked();
    canonical = CanonicalLocked(box);
    if (canonical.IsEmpty()) return 0;
    fp = FingerprintBox(canonical);
    const int64_t slot = LookupLocked(canonical, fp);
    if (slot >= 0) {
      Entry& e = slots_[static_cast<size_t>(slot)];
      if (!PopulationDisabled()) e.ref = 1;
      RecordHit(canonical);
      UpdateHitRatioLocked();
      return e.value;
    }
    RecordMiss();
    UpdateHitRatioLocked();
    probe_gen = gen_;
  }
  // Compute outside the lock: the descent may be long and must not block
  // concurrent probes. Equal to the query's sum because every cell the
  // canonical clip dropped lies outside the backing domain (value zero).
  const int64_t value = inner_->RangeSum(canonical);
  if (!PopulationDisabled()) {
    std::lock_guard<std::mutex> lock(mu_);
    // Insert guard: a writer that started (or finished) since the probe
    // may have changed cells under this box — the computed value is still
    // a valid *answer* (the read linearizes before that writer) but must
    // not outlive it in the cache.
    if (pending_writers_ == 0 && gen_ == probe_gen) {
      InsertLocked(canonical, fp, value, false);
    }
  }
  return value;
}

int64_t CachedCube::RangeSum(const Box& box) const {
  return CachedRangeSum(box);
}

void CachedCube::RangeSumBatch(std::span<const Box> ranges,
                               std::span<int64_t> out) const {
  DDC_CHECK(ranges.size() == out.size());
  struct MissRec {
    size_t idx;
    Box canonical;
    uint64_t fp;
  };
  std::vector<MissRec> misses;
  uint64_t probe_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PollReRootLocked();
    probe_gen = gen_;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const Box canonical = CanonicalLocked(ranges[i]);
      if (canonical.IsEmpty()) {
        out[i] = 0;
        continue;
      }
      const uint64_t fp = FingerprintBox(canonical);
      const int64_t slot = LookupLocked(canonical, fp);
      if (slot >= 0) {
        Entry& e = slots_[static_cast<size_t>(slot)];
        if (!PopulationDisabled()) e.ref = 1;
        RecordHit(canonical);
        out[i] = e.value;
      } else {
        RecordMiss();
        misses.push_back(MissRec{i, canonical, fp});
      }
    }
    UpdateHitRatioLocked();
  }
  if (misses.empty()) return;
  // One batched call for every miss: the backing cube still gets to share
  // descents and deduplicate corners across them.
  std::vector<Box> boxes;
  boxes.reserve(misses.size());
  for (const MissRec& m : misses) boxes.push_back(m.canonical);
  std::vector<int64_t> values(misses.size());
  inner_->RangeSumBatch(boxes, values);
  for (size_t j = 0; j < misses.size(); ++j) out[misses[j].idx] = values[j];
  if (!PopulationDisabled()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_writers_ == 0 && gen_ == probe_gen) {
      for (size_t j = 0; j < misses.size(); ++j) {
        InsertLocked(misses[j].canonical, misses[j].fp, values[j], false);
      }
    }
  }
}

void CachedCube::InvalidateLocked(std::span<const Mutation> batch) {
  // One fused pass over the batch computes the dirty bounds AND collects
  // the overlap-index inputs (each Mutation's Cell is its own heap block,
  // so every extra pass over the batch is another pointer-chasing walk —
  // measurable against the batch apply itself). Unpinned entries only
  // need an existence answer ("does anything in the batch dirty my
  // box?"), so point mutations go into a counting-bucketed contiguous
  // array and range mutations into a short precomputed-box list. The
  // naive alternative — recomputing MutationDirtyBox per (entry,
  // mutation) pair — allocates two Cells per pair and tripled ApplyBatch
  // latency at 64 resident entries x 256-point batches
  // (bench_cached_reads prices the write-path toll; the 0.952 smoke
  // floor keeps it priced).
  point_scratch_.clear();
  range_boxes_.clear();
  Box bounds;
  bool any = false;
  for (const Mutation& m : batch) {
    const Cell& lo = m.cell;
    const Cell* hi = &m.cell;
    if (m.is_range()) {
      Box dirty = MutationDirtyBox(m);
      if (dirty.IsEmpty()) continue;
      range_boxes_.push_back(std::move(dirty));
      hi = &range_boxes_.back().hi;
    } else {
      point_scratch_.push_back(
          BatchPoint{m.cell[0], dims_ > 1 ? m.cell[1] : 0, &m});
    }
    if (!any) {
      bounds.lo = lo;
      bounds.hi = *hi;
      any = true;
      continue;
    }
    for (size_t d = 0; d < lo.size(); ++d) {
      if (lo[d] < bounds.lo[d]) bounds.lo[d] = lo[d];
      if ((*hi)[d] > bounds.hi[d]) bounds.hi[d] = (*hi)[d];
    }
  }
  if (!any) return;
  if (domain_stale_) RefreshDomainLocked();
  // A batch writing outside the snapshot domain may grow the backing cube:
  // clip-based keys minted against the old domain stop matching the cube's
  // own clipping, so nothing keyed before the write can be trusted after
  // it. Flush wholesale (growth re-roots and would flush anyway). The
  // just-built index is simply abandoned.
  for (int i = 0; i < dims_; ++i) {
    const size_t ud = static_cast<size_t>(i);
    if (bounds.lo[ud] < domain_lo_[ud] || bounds.hi[ud] > domain_hi_[ud]) {
      FlushLocked();
      domain_stale_ = true;
      return;
    }
  }
  if (live_ == 0) return;

  // Counting-bucket the points by cell[0] over the dirty-bounds extent
  // (every point is inside `bounds` by construction): two linear passes
  // instead of a comparison sort. Each bucket also records which of 64
  // equal bands of the c1 extent its points fall in, so a probe skips a
  // bucket with one AND when none of its points can be in the box's rows.
  bucket_base_ = bounds.lo[0];
  bucket_extent_ = bounds.hi[0] - bounds.lo[0] + 1;
  band_base_ = dims_ > 1 ? bounds.lo[1] : 0;
  band_extent_ = dims_ > 1 ? bounds.hi[1] - bounds.lo[1] + 1 : 1;
  uint32_t counts[kInvalBuckets] = {};
  for (uint64_t& bands : bucket_bands_) bands = 0;
  for (const BatchPoint& p : point_scratch_) {
    const size_t b = BucketOf(p.c0);
    ++counts[b];
    bucket_bands_[b] |= uint64_t{1} << BandOf(p.c1);
  }
  bucket_start_[0] = 0;
  for (size_t b = 0; b < kInvalBuckets; ++b) {
    bucket_start_[b + 1] = bucket_start_[b] + counts[b];
  }
  point_index_.resize(point_scratch_.size());
  uint32_t cursor[kInvalBuckets];
  for (size_t b = 0; b < kInvalBuckets; ++b) cursor[b] = bucket_start_[b];
  for (const BatchPoint& p : point_scratch_) {
    point_index_[cursor[BucketOf(p.c0)]++] = p;
  }

  // Pinned patching needs per-mutation dirty boxes in batch order (each
  // additive overlap adds delta x |overlap| to the pinned sum); build them
  // only when a pinned entry is actually resident.
  std::vector<Box> ordered_dirty;
  if (pinned_live_ > 0) {
    ordered_dirty.reserve(batch.size());
    for (const Mutation& m : batch) ordered_dirty.push_back(MutationDirtyBox(m));
  }

  for (size_t s = 0; s < slots_.size(); ++s) {
    Entry& e = slots_[s];
    // One bounding-box test rejects the whole batch for most entries; the
    // index probe below runs only for entries near the write.
    if (!e.live || !BoxesOverlap(e.box, bounds)) continue;
    if (e.pinned) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const Mutation& m = batch[i];
        const Box& dirty = ordered_dirty[i];
        if (dirty.IsEmpty() || !BoxesOverlap(e.box, dirty)) continue;
        if (m.kind == MutationKind::kAdd ||
            m.kind == MutationKind::kRangeAdd) {
          // Additive overlap patches a pinned sum instead of evicting it:
          // the delta lands on |overlap| cells, each contributing delta to
          // the boxed sum. Assignments fall through to eviction — the
          // cache cannot know the values they overwrite.
          const int64_t cells =
              m.is_range() ? IntersectBoxes(e.box, dirty).NumCells() : 1;
          e.value += m.delta * cells;
          ++stats_.patched;
          if (obs::Enabled()) PatchedCounter().Increment();
          continue;
        }
        // Crash-arming hook for tools/crashloop.sh: a kill landing between
        // two evictions must leave a recoverable process (the cache is
        // never WAL-durable; replay rebuilds it cold).
        (void)DDC_FAULTPOINT("cache.invalidate.mid");
        EvictSlotLocked(s);
        ++stats_.invalidated;
        if (obs::Enabled()) InvalidatedCounter().Increment();
        break;
      }
    } else if (EntryOverlapsBatchLocked(e.box)) {
      (void)DDC_FAULTPOINT("cache.invalidate.mid");
      EvictSlotLocked(s);
      ++stats_.invalidated;
      if (obs::Enabled()) InvalidatedCounter().Increment();
    }
    if (live_ == 0) break;
  }
}

size_t CachedCube::BandOf(Coord c1) const {
  const int64_t off = c1 - band_base_;
  const size_t b = static_cast<size_t>(off * 64 / band_extent_);
  return b >= 64 ? 63 : b;
}

size_t CachedCube::BucketOf(Coord c0) const {
  const int64_t off = c0 - bucket_base_;
  const size_t b = static_cast<size_t>(
      off * static_cast<int64_t>(kInvalBuckets) / bucket_extent_);
  return b >= kInvalBuckets ? kInvalBuckets - 1 : b;
}

bool CachedCube::EntryOverlapsBatchLocked(const Box& box) const {
  for (const Box& dirty : range_boxes_) {
    if (BoxesOverlap(box, dirty)) return true;
  }
  if (point_index_.empty()) return false;
  // Only the buckets overlapping [lo[0], hi[0]] can hold a hit; boundary
  // buckets carry points outside the slice, so each candidate still gets
  // the exact c0 test.
  const Coord clip_lo = std::max(box.lo[0], bucket_base_);
  const Coord clip_hi =
      std::min(box.hi[0], bucket_base_ + bucket_extent_ - 1);
  if (clip_lo > clip_hi) return false;
  const size_t blo = BucketOf(clip_lo);
  const size_t bhi = BucketOf(clip_hi);
  uint64_t rows = 1;  // dims == 1: every point sits in band 0.
  if (dims_ > 1) {
    const Coord row_lo = std::max(box.lo[1], band_base_);
    const Coord row_hi = std::min(box.hi[1], band_base_ + band_extent_ - 1);
    if (row_lo > row_hi) return false;
    // Bits [0, n) set.
    const auto below = [](size_t n) {
      return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    };
    rows = below(BandOf(row_hi) + 1) & ~below(BandOf(row_lo));
  }
  for (size_t b = blo; b <= bhi; ++b) {
    if ((bucket_bands_[b] & rows) == 0) continue;
    for (size_t i = bucket_start_[b]; i < bucket_start_[b + 1]; ++i) {
      const BatchPoint& p = point_index_[i];
      if (p.c0 < box.lo[0] || p.c0 > box.hi[0]) continue;
      if (dims_ > 1 && (p.c1 < box.lo[1] || p.c1 > box.hi[1])) continue;
      bool inside = true;
      if (dims_ > 2) {
        const Cell& cell = p.m->cell;
        for (size_t d = 2; d < cell.size(); ++d) {
          if (cell[d] < box.lo[d] || cell[d] > box.hi[d]) {
            inside = false;
            break;
          }
        }
      }
      if (inside) return true;
    }
  }
  return false;
}

void CachedCube::WritePrologue(std::span<const Mutation> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_writers_;
  // Invalidate BEFORE the backing apply: were it after, a concurrent probe
  // could hit a stale entry in the window where the cube already holds the
  // new values. Before-apply hits return the pre-write value instead,
  // which linearizes the read before the write.
  InvalidateLocked(batch);
}

void CachedCube::WriteEpilogue() {
  std::lock_guard<std::mutex> lock(mu_);
  --pending_writers_;
  ++gen_;
  PollReRootLocked();
}

void CachedCube::Set(const Cell& cell, int64_t value) {
  const Mutation m{cell, value, MutationKind::kSet, {}};
  WritePrologue(std::span<const Mutation>(&m, 1));
  inner_->Set(cell, value);
  WriteEpilogue();
}

void CachedCube::Add(const Cell& cell, int64_t delta) {
  const Mutation m{cell, delta, MutationKind::kAdd, {}};
  WritePrologue(std::span<const Mutation>(&m, 1));
  inner_->Add(cell, delta);
  WriteEpilogue();
}

void CachedCube::RangeAdd(const Box& box, int64_t delta) {
  const Mutation m = MakeRangeAdd(box.lo, box.hi, delta);
  WritePrologue(std::span<const Mutation>(&m, 1));
  inner_->RangeAdd(box, delta);
  WriteEpilogue();
}

void CachedCube::RangeSet(const Box& box, int64_t value) {
  const Mutation m = MakeRangeSet(box.lo, box.hi, value);
  WritePrologue(std::span<const Mutation>(&m, 1));
  inner_->RangeSet(box, value);
  WriteEpilogue();
}

bool CachedCube::ApplyBatch(std::span<const Mutation> batch) {
  // Reject-before-invalidate: a malformed batch is a recoverable error
  // that must leave cache and cube both untouched (the backing cube would
  // reject it too; checking here keeps the invalidation pass off it).
  if (!BatchWellFormed(batch, dims_)) return false;
  WritePrologue(batch);
  const bool ok = inner_->ApplyBatch(batch);
  WriteEpilogue();
  return ok;
}

void CachedCube::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  domain_stale_ = true;
  ++gen_;
}

void CachedCube::InvalidateBatch(std::span<const Mutation> batch) {
  if (!BatchWellFormed(batch, dims_)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++gen_;  // Kill in-flight miss inserts probed before this call.
  InvalidateLocked(batch);
}

int CachedCube::AdoptHotRanges() {
  if (PopulationDisabled() || !obs::Enabled()) return 0;
  const std::vector<obs::WorkloadRecorder::HotBox> hot =
      obs::WorkloadRecorder::Default().HotReads();
  struct Candidate {
    Box canonical;
    uint64_t fp;
  };
  std::vector<Candidate> need;
  int adopted = 0;
  uint64_t probe_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PollReRootLocked();
    probe_gen = gen_;
    for (const obs::WorkloadRecorder::HotBox& hb : hot) {
      if (hb.dims != dims_) continue;
      if (pinned_live_ + need.size() >=
          static_cast<size_t>(options_.max_pinned)) {
        break;
      }
      Box box;
      box.lo.assign(hb.lo, hb.lo + hb.dims);
      box.hi.assign(hb.hi, hb.hi + hb.dims);
      const Box canonical = CanonicalLocked(box);
      if (canonical.IsEmpty()) continue;
      const uint64_t fp = FingerprintBox(canonical);
      const int64_t slot = LookupLocked(canonical, fp);
      if (slot >= 0) {
        Entry& e = slots_[static_cast<size_t>(slot)];
        if (!e.pinned) {
          e.pinned = true;
          ++pinned_live_;
          ++stats_.pins;
          if (obs::Enabled()) PinnedCounter().Increment();
          ++adopted;
        }
        continue;
      }
      need.push_back(Candidate{canonical, fp});
    }
  }
  if (need.empty()) return adopted;
  std::vector<Box> boxes;
  boxes.reserve(need.size());
  for (const Candidate& c : need) boxes.push_back(c.canonical);
  std::vector<int64_t> values(need.size());
  inner_->RangeSumBatch(boxes, values);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_writers_ == 0 && gen_ == probe_gen) {
      for (size_t j = 0; j < need.size(); ++j) {
        const size_t pinned_before = pinned_live_;
        InsertLocked(need[j].canonical, need[j].fp, values[j], true);
        if (pinned_live_ > pinned_before) ++adopted;
      }
    }
  }
  return adopted;
}

CacheStats CachedCube::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats snapshot = stats_;
  snapshot.entries = static_cast<int64_t>(live_);
  snapshot.pinned_entries = static_cast<int64_t>(pinned_live_);
  return snapshot;
}

void CachedCube::ShrinkToFit(int64_t min_side) {
  inner_->ShrinkToFit(min_side);
  std::lock_guard<std::mutex> lock(mu_);
  PollReRootLocked();
}

void CachedCube::ExplainPlan(std::span<const Box> rows,
                             std::ostream& os) const {
  const CacheStats stats = Stats();
  os << "  cache: entries=" << stats.entries
     << " pinned=" << stats.pinned_entries << " hits=" << stats.hits
     << " misses=" << stats.misses << "\n";
  inner_->ExplainPlan(rows, os);
}

}  // namespace ddc
