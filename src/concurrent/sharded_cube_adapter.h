// ShardedCubeAdapter: the CubeInterface view of a ShardedCube.
//
// ShardedCube is not a CubeInterface — its per-shard accounting doesn't fit
// the virtual per-op counters of the base class. Layers that compose over
// "any cube" (the query-result cache in src/cache, generic differential
// harnesses) still want the sharded cube behind the common contract; this
// adapter is that bridge. Every call forwards to the corresponding
// ShardedCube operation, so the adapter inherits its thread-safety: any
// number of threads may call any mix of members concurrently.
//
// PrefixSum is served as RangeSum(DomainLo() .. cell): the sharded executor
// has no native prefix entry point, and a prefix sum *is* the range sum
// from the domain anchor. That costs a domain gather per call — fine for
// the differential suites that use it, wrong for a hot path (use RangeSum
// with an explicit box there).

#ifndef DDC_CONCURRENT_SHARDED_CUBE_ADAPTER_H_
#define DDC_CONCURRENT_SHARDED_CUBE_ADAPTER_H_

#include <string>

#include "common/cube_interface.h"
#include "concurrent/sharded_cube.h"

namespace ddc {

class ShardedCubeAdapter : public CubeInterface {
 public:
  // The adapter borrows `cube`; the caller keeps it alive and owns its
  // shutdown. Multiple adapters over one cube are fine (they hold no
  // state of their own).
  explicit ShardedCubeAdapter(ShardedCube* cube) : cube_(cube) {}

  int dims() const override { return cube_->dims(); }
  Cell DomainLo() const override { return cube_->DomainLo(); }
  Cell DomainHi() const override { return cube_->DomainHi(); }

  void Set(const Cell& cell, int64_t value) override {
    cube_->Set(cell, value);
  }
  void Add(const Cell& cell, int64_t delta) override {
    cube_->Add(cell, delta);
  }
  int64_t Get(const Cell& cell) const override { return cube_->Get(cell); }

  void RangeAdd(const Box& box, int64_t delta) override {
    cube_->RangeAdd(box, delta);
  }
  void RangeSet(const Box& box, int64_t value) override {
    cube_->RangeSet(box, value);
  }
  bool ApplyBatch(std::span<const Mutation> batch) override {
    return cube_->ApplyBatch(batch);
  }

  int64_t PrefixSum(const Cell& cell) const override {
    return cube_->RangeSum(Box{cube_->DomainLo(), cell});
  }
  int64_t RangeSum(const Box& box) const override {
    return cube_->RangeSum(box);
  }
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override {
    cube_->RangeSumBatch(ranges, out);
  }

  int64_t StorageCells() const override { return cube_->StorageCells(); }
  std::string name() const override { return "sharded_cube"; }

  ShardedCube* sharded() const { return cube_; }

 private:
  ShardedCube* cube_;
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_SHARDED_CUBE_ADAPTER_H_
