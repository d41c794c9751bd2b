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

#ifndef DDC_CONCURRENT_CONCURRENT_CUBE_H_
#define DDC_CONCURRENT_CONCURRENT_CUBE_H_

#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <span>

#include "common/cell.h"
#include "common/mutation.h"
#include "common/range.h"
#include "ddc/ddc_options.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {

class ConcurrentCube {
 public:
  // `options.enable_counters` is forced off (see header comment).
  ConcurrentCube(int dims, int64_t initial_side, DdcOptions options = {});

  ConcurrentCube(const ConcurrentCube&) = delete;
  ConcurrentCube& operator=(const ConcurrentCube&) = delete;

  int dims() const { return cube_.dims(); }

  // Writers (exclusive).
  void Add(const Cell& cell, int64_t delta);
  void Set(const Cell& cell, int64_t value);
  // Range writers: one exclusive acquisition around the wrapped cube's
  // range op (signed-corner overlay for RangeAdd, per-cell expansion for
  // RangeSet; growth/clipping semantics are the wrapped cube's).
  void RangeAdd(const Box& box, int64_t delta);
  void RangeSet(const Box& box, int64_t value);
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
  bool ApplyBatch(std::span<const Mutation> batch);
  void ShrinkToFit(int64_t min_side = 2);

  // Readers (shared).
  int64_t Get(const Cell& cell) const;
  int64_t RangeSum(const Box& box) const;
  // Batched range sums under ONE shared-lock acquisition, served whole by
  // the cube's corner-deduplicating batch path (chunking the batch across
  // threads would lose the dedup between chunks). Results equal per-box
  // RangeSum.
  void RangeSumBatch(std::span<const Box> boxes, std::span<int64_t> out) const;
  int64_t TotalSum() const;
  int64_t StorageCells() const;
  Cell DomainLo() const;
  Cell DomainHi() const;

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
  mutable std::shared_mutex mutex_;
  DynamicDataCube cube_;
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_CONCURRENT_CUBE_H_
