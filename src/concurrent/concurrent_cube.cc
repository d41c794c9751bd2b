#include "concurrent/concurrent_cube.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace ddc {

namespace {

DdcOptions WithoutCounters(DdcOptions options) {
  options.enable_counters = false;
  return options;
}

obs::Histogram& RangeBatchSizeHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram("concurrent.range_batch.size");
  return hist;
}

obs::Histogram& RangeBatchNsHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram("concurrent.range_batch.ns");
  return hist;
}

obs::Histogram& ApplyBatchSizeHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram(
          "concurrent.apply_batch.size");
  return hist;
}

obs::Histogram& ApplyBatchNsHist() {
  static obs::Histogram& hist =
      *obs::MetricsRegistry::Default().GetHistogram(
          "concurrent.apply_batch.ns");
  return hist;
}

}  // namespace

ConcurrentCube::ConcurrentCube(int dims, int64_t initial_side,
                               DdcOptions options)
    : cube_(dims, initial_side, WithoutCounters(options)) {}

void ConcurrentCube::RefreshEpochLocked() {
  epoch_.store(cube_.ReRootEpoch());
}

void ConcurrentCube::Add(const Cell& cell, int64_t delta) {
  std::unique_lock lock(mutex_);
  cube_.Add(cell, delta);
  RefreshEpochLocked();
}

void ConcurrentCube::Set(const Cell& cell, int64_t value) {
  std::unique_lock lock(mutex_);
  cube_.Set(cell, value);
  RefreshEpochLocked();
}

void ConcurrentCube::RangeAdd(const Box& box, int64_t delta) {
  std::unique_lock lock(mutex_);
  cube_.RangeAdd(box, delta);
  RefreshEpochLocked();
}

void ConcurrentCube::RangeSet(const Box& box, int64_t value) {
  std::unique_lock lock(mutex_);
  cube_.RangeSet(box, value);
  RefreshEpochLocked();
}

bool ConcurrentCube::ApplyBatch(std::span<const Mutation> batch) {
  if (!BatchWellFormed(batch, dims())) return false;
  if (batch.empty()) return true;
  obs::TraceSpan span("concurrent.apply_batch",
                      static_cast<int64_t>(batch.size()), 0,
                      &ApplyBatchNsHist());
  if (obs::Enabled()) {
    ApplyBatchSizeHist().Record(static_cast<int64_t>(batch.size()));
  }
  if (BatchHasRange(batch)) {
    // Range mutations can change cells between the steps of a batch, so
    // the coalesce-outside-the-lock trick below (which resolves every kSet
    // against the pre-batch value) would mis-order. Forward the whole
    // batch to the cube's step-by-step program apply under one exclusive
    // hold — still a single lock acquisition for the batch.
    std::unique_lock lock(mutex_);
    const bool ok = cube_.ApplyBatch(batch);
    RefreshEpochLocked();
    return ok;
  }
  // Coalescing is pure computation over the batch; do it before taking the
  // lock so the exclusive hold covers only the actual application.
  const std::vector<CoalescedCell> coalesced = CoalesceMutations(batch);
  std::vector<size_t> set_cells;
  for (size_t i = 0; i < coalesced.size(); ++i) {
    if (coalesced[i].has_set) set_cells.push_back(i);
  }

  std::unique_lock lock(mutex_);
  // Resolve each kSet run against the cell's pre-batch value. Reads are
  // const and nothing else can write while we hold the lock exclusively,
  // so large runs fan out across the pool (workers take no locks; the
  // ParallelFor join orders their reads before the writes below).
  std::vector<int64_t> base(set_cells.size(), 0);
  constexpr size_t kMinChunk = 8;
  if (set_cells.size() < 2 * kMinChunk) {
    for (size_t k = 0; k < set_cells.size(); ++k) {
      base[k] = cube_.Get(coalesced[set_cells[k]].cell);
    }
  } else {
    ThreadPool& pool = ThreadPool::Shared();
    const size_t lanes = static_cast<size_t>(pool.num_threads()) + 1;
    const size_t num_chunks =
        std::clamp<size_t>(set_cells.size() / kMinChunk, size_t{1}, lanes);
    const size_t chunk = (set_cells.size() + num_chunks - 1) / num_chunks;
    pool.ParallelFor(num_chunks, [&](size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(set_cells.size(), begin + chunk);
      for (size_t k = begin; k < end; ++k) {
        base[k] = cube_.Get(coalesced[set_cells[k]].cell);
      }
    });
  }

  MutationBatch resolved;
  resolved.reserve(coalesced.size());
  size_t set_k = 0;
  for (const CoalescedCell& c : coalesced) {
    const int64_t net = c.has_set
                            ? c.set_value + c.pending_add - base[set_k++]
                            : c.pending_add;
    if (net == 0) continue;
    resolved.push_back(Mutation{c.cell, net, MutationKind::kAdd});
  }
  cube_.ApplyBatch(resolved);
  RefreshEpochLocked();
  return true;
}

void ConcurrentCube::ShrinkToFit(int64_t min_side) {
  std::unique_lock lock(mutex_);
  cube_.ShrinkToFit(min_side);
  RefreshEpochLocked();
}

int64_t ConcurrentCube::Get(const Cell& cell) const {
  std::shared_lock lock(mutex_);
  return cube_.Get(cell);
}

int64_t ConcurrentCube::PrefixSum(const Cell& cell) const {
  std::shared_lock lock(mutex_);
  return cube_.PrefixSum(cell);
}

int64_t ConcurrentCube::RangeSum(const Box& box) const {
  std::shared_lock lock(mutex_);
  return cube_.RangeSum(box);
}

void ConcurrentCube::RangeSumBatch(std::span<const Box> boxes,
                                   std::span<int64_t> out) const {
  DDC_CHECK(boxes.size() == out.size());
  if (boxes.empty()) return;
  obs::TraceSpan span("concurrent.range_sum_batch",
                      static_cast<int64_t>(boxes.size()), 0,
                      &RangeBatchNsHist());
  if (obs::Enabled()) {
    RangeBatchSizeHist().Record(static_cast<int64_t>(boxes.size()));
  }
  // One batched call: splitting the batch would split the cross-box corner
  // dedup that makes the batched path fast.
  std::shared_lock lock(mutex_);
  cube_.RangeSumBatch(boxes, out);
}

int64_t ConcurrentCube::TotalSum() const {
  std::shared_lock lock(mutex_);
  return cube_.TotalSum();
}

int64_t ConcurrentCube::StorageCells() const {
  std::shared_lock lock(mutex_);
  return cube_.StorageCells();
}

Cell ConcurrentCube::DomainLo() const {
  std::shared_lock lock(mutex_);
  return cube_.DomainLo();
}

Cell ConcurrentCube::DomainHi() const {
  std::shared_lock lock(mutex_);
  return cube_.DomainHi();
}

void ConcurrentCube::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  std::shared_lock lock(mutex_);
  cube_.ForEachNonZero(fn);
}

void ConcurrentCube::WithExclusive(
    const std::function<void(DynamicDataCube*)>& fn) {
  std::unique_lock lock(mutex_);
  fn(&cube_);
  RefreshEpochLocked();
}

}  // namespace ddc
