// ConcurrentCube: a thread-safe facade over the Dynamic Data Cube.
//
// Writers take an exclusive lock; readers share a lock and run in parallel.
// Operation counters are disabled on the wrapped cube (queries would
// otherwise mutate shared counter state), making query paths strictly
// const — which is what the shared lock requires.
//
// This is a coarse-grained design: the DDC's polylog operations are so
// short that a single reader-writer lock sustains high mixed throughput,
// and it keeps the wrapped structure's invariants trivially intact across
// growth re-rooting (which swaps the entire core).
//
// ConcurrentCube is a CubeInterface. Every exclusive section ends by
// copying the wrapped cube's ReRootEpoch() into an atomic mirror, so
// ReRootEpoch() answers without taking the lock.

#ifndef DDC_CONCURRENT_CONCURRENT_CUBE_H_
#define DDC_CONCURRENT_CONCURRENT_CUBE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <span>
#include <string>

#include "common/cell.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/range.h"
#include "ddc/ddc_options.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {

class ConcurrentCube : public CubeInterface {
 public:
  // `options.enable_counters` is forced off (see header comment).
  ConcurrentCube(int dims, int64_t initial_side, DdcOptions options = {});

  ConcurrentCube(const ConcurrentCube&) = delete;
  ConcurrentCube& operator=(const ConcurrentCube&) = delete;

  int dims() const override { return cube_.dims(); }

  // Writers (exclusive).
  void Add(const Cell& cell, int64_t delta) override;
  void Set(const Cell& cell, int64_t value) override;
  // Range writers: one exclusive acquisition around the wrapped cube's
  // range op (signed-corner overlay for RangeAdd, per-cell expansion for
  // RangeSet; growth/clipping semantics are the wrapped cube's).
  void RangeAdd(const Box& box, int64_t delta) override;
  void RangeSet(const Box& box, int64_t value) override;
  // Applies the whole batch under ONE exclusive acquisition (the
  // CubeInterface::ApplyBatch contract; results equal sequential Add /
  // Set / RangeAdd / RangeSet). A point-only batch is coalesced to one net
  // effect per cell before the lock is taken; large kSet runs resolve
  // their base values by fanning Get calls across the shared thread pool —
  // safe because tree reads are const and no other writer can enter while
  // this thread holds the lock exclusively — and the resolved pure-Add
  // batch lands in one shared-descent apply. A batch carrying range
  // mutations forwards to the wrapped cube's program apply under the same
  // single exclusive hold (kSet resolution against pre-batch values would
  // be wrong once a range op can change cells mid-batch). Returns false
  // (nothing applied) on a malformed batch.
  bool ApplyBatch(std::span<const Mutation> batch) override;
  void ShrinkToFit(int64_t min_side = 2) override;

  // Readers (shared).
  int64_t Get(const Cell& cell) const override;
  int64_t PrefixSum(const Cell& cell) const override;
  int64_t RangeSum(const Box& box) const override;
  // Batched range sums under ONE shared-lock acquisition, served whole by
  // the cube's corner-deduplicating batch path (chunking the batch across
  // threads would lose the dedup between chunks). Results equal per-box
  // RangeSum.
  void RangeSumBatch(std::span<const Box> boxes,
                     std::span<int64_t> out) const override;
  int64_t TotalSum() const;
  int64_t StorageCells() const override;
  Cell DomainLo() const override;
  Cell DomainHi() const override;
  std::string name() const override { return "concurrent_cube"; }
  // The wrapped cube's re-root count as of the last exclusive section.
  int64_t ReRootEpoch() const override { return epoch_.load(); }

  // Consistent iteration: holds the shared lock for the whole walk, so the
  // callback sees one atomic snapshot of the cube. The callback must not
  // call back into this object (deadlock with writers waiting).
  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const;

  // Runs `fn` with exclusive access to the underlying cube, for compound
  // read-modify-write transactions (e.g. move value from one cell to
  // another atomically).
  void WithExclusive(const std::function<void(DynamicDataCube*)>& fn);

 private:
  // Copies cube_.ReRootEpoch() into epoch_; called at the end of every
  // exclusive section, before the lock is released.
  void RefreshEpochLocked();

  mutable std::shared_mutex mutex_;
  DynamicDataCube cube_;
  std::atomic<int64_t> epoch_{0};
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_CONCURRENT_CUBE_H_
