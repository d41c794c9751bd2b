// ShardedCubeAdapter: a plain forwarder from CubeInterface to a borrowed
// ShardedCube.
//
// ShardedCube is itself a CubeInterface, so nothing in the library needs
// this class any more. It is kept only because the end-to-end benchmark
// (perfbench/e2e_bench.cc) names it, and goes with the next change to that
// benchmark. Every call forwards to the ShardedCube, so the adapter
// inherits its thread-safety.

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
    return cube_->PrefixSum(cell);
  }
  int64_t RangeSum(const Box& box) const override {
    return cube_->RangeSum(box);
  }
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override {
    cube_->RangeSumBatch(ranges, out);
  }

  int64_t StorageCells() const override { return cube_->StorageCells(); }
  std::string name() const override { return cube_->name(); }

  ShardedCube* sharded() const { return cube_; }

 private:
  ShardedCube* cube_;
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_SHARDED_CUBE_ADAPTER_H_
