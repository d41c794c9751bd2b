// ShardedCube: a lock-striped concurrent facade over the Dynamic Data Cube,
// with every shard's work executed on the calling thread.
//
// ShardedCube partitions the domain along the highest-order dimension
// (dimension 0) into S contiguous slabs of width `initial_side / S`, tiled
// periodically across the (unbounded, growable) axis: the cell with first
// coordinate c0 belongs to shard `floor(c0 / slab_width) mod S`. S = 1 is
// the coarse configuration: one writer-preferring lock over one cube, every
// batch reaching that cube whole.
//
// Execution model (caller-executed shards; see DESIGN.md §15)
//   Each shard is an independent DynamicDataCube under its own
//   reader-writer lock. There are no shard threads: the thread that calls an
//   operation runs the shard work itself, under that shard's lock. The
//   paper's operations are O(log^d n) descents taking microseconds, so
//   handing them to another thread costs about as much as running them.
//
//   Lock rules (these are what make the facade deadlock-free):
//     * Reads (Get, RangeSum, PrefixSum, RangeSumBatch, TotalSum,
//       StorageCells, DomainLo/Hi) run inline and hold one shard's shared
//       lock at a time. RangeSum visits a box's pieces in slab order, the
//       others visit shards in ascending index order.
//     * ApplyBatch applies each shard group under that shard's exclusive
//       lock, in batch order (in slices of at most kApplySlice mutations,
//       all under the one hold). A batch below kPoolMinBatch mutations runs
//       its groups on the caller, in ascending shard order. A larger batch
//       touching >= 2 shards hands the groups to
//       ThreadPool::Shared().ParallelFor, one index per shard; the caller
//       participates, each task holds exactly one shard lock and never
//       waits on the pool. ShrinkToFit visits the shards one at a time.
//     * ForEachNonZero takes every shard's shared lock in ascending shard
//       order, walks, then releases. Writers hold one lock at a time, so
//       the ordered acquisition cannot deadlock and the walk sees one
//       consistent global snapshot.
//   Every operation is synchronous, so a batch is atomic per shard (its
//   group lands under one exclusive hold) and two calls from one thread are
//   applied in order. The shard locks prefer writers, so a stream of
//   overlapping readers cannot starve a shard's writers.
//
// Growth: each shard's DynamicDataCube grows (re-roots) inside the mutation
// that triggered it, under that shard's exclusive lock; growth needs no
// cross-shard coordination. Before releasing that lock the writer copies
// the shard cube's ReRootEpoch() into the shard's atomic mirror, so
// ReRootEpoch() (the sum of the mirrors) reads re-roots without taking any
// lock.
//
// ShardedCube is a CubeInterface, so the query-result cache, the executor
// and the differential suites compose over it like over any other cube.
//
// The shard cubes run with operation counters disabled (per-cube OpCounters
// are not thread-safe to mutate under a shared lock); their value counts
// reach the ledger and the registry through the per-thread count blocks
// (common/op_counter.h), and whole operations are counted in the registry's
// sharded.* counters.

#ifndef DDC_CONCURRENT_SHARDED_CUBE_H_
#define DDC_CONCURRENT_SHARDED_CUBE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/cell.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/range.h"
#include "ddc/ddc_core.h"
#include "ddc/ddc_options.h"

namespace ddc {

class ShardedCube : public CubeInterface {
 public:
  // `num_shards` >= 1. With num_shards == 1 this is the coarse facade: one
  // reader-writer lock over one cube.
  ShardedCube(int dims, int64_t initial_side, int num_shards,
              DdcOptions options = {});
  ~ShardedCube() override;

  ShardedCube(const ShardedCube&) = delete;
  ShardedCube& operator=(const ShardedCube&) = delete;

  int dims() const override { return dims_; }
  int num_shards() const { return num_shards_; }
  int64_t slab_width() const { return slab_width_; }

  // The shard owning `cell` (determined by cell[0] only; stable across
  // growth).
  int ShardOf(const Cell& cell) const;

  // Writers — applied under the owning shard's exclusive lock.
  void Add(const Cell& cell, int64_t delta) override;
  void Set(const Cell& cell, int64_t value) override;

  // Range writers: one mutation through ApplyBatch (per-slab decomposition,
  // one group per touched shard). Growth/clipping semantics match
  // DynamicDataCube: range-add grows each touched shard to contain its
  // slab piece; a zero-valued range-set clips to the current domain.
  void RangeAdd(const Box& box, int64_t delta) override;
  void RangeSet(const Box& box, int64_t value) override;

  // Applies every mutation of the batch (the CubeInterface::ApplyBatch
  // contract), grouped by shard without copying: a stable counting sort of
  // mutation indices by shard, into reused per-thread buffers. Each shard
  // group is handed to the shard cube's batched apply in batch order under
  // that shard's exclusive lock, in slices of at most kApplySlice gathered
  // into a per-thread buffer that keeps its capacity, so a steady-state
  // small batch allocates nothing here. A point-only group longer than one
  // slice is first stably sorted in the shard tree's Z-order.
  // Groups of a multi-shard batch of at least kPoolMinBatch mutations run
  // in parallel on the shared pool; smaller batches run on the caller.
  // Range mutations are first decomposed along dimension 0 into exactly one
  // sub-box per owned slab run — unlike the read pieces' whole-box shortcut,
  // a write must hand each cell to exactly one shard, or the box would be
  // applied once per shard. The final state always equals sequential
  // application (mutations on different cells commute, mutations on the
  // same cell share a shard and keep their relative order). A batch is
  // atomic per shard but not across shards. Returns false (nothing
  // applied) on a malformed batch.
  bool ApplyBatch(std::span<const Mutation> ops) override;

  // The batch size (in mutations, a range counting once) from which
  // ApplyBatch fans shard groups out to the pool. Below it a second thread
  // saves too little to clearly repay the pool's hand-off and the cache
  // misses it leaves for the caller's next statement; from it up the pool
  // cuts a 2-shard batch by a steady third. DESIGN.md §15 has the
  // measurements and the host they come from.
  static constexpr size_t kPoolMinBatch = 256;

  // The most mutations of one shard group handed to the shard cube in one
  // batched apply. A larger group lands in consecutive slices, all under
  // the same exclusive hold (so the batch stays atomic per shard), with
  // the group's growth settled before the first slice (so, as in one
  // unsliced apply, every re-root lands before any of the group's values
  // and copies only what the shard held before the batch). The shard
  // cube's coalesce map, its write-cell list and its core's tree-order
  // sort buffers then grow with the slice, not with the group. A
  // point-only group is stably sorted in the shard tree's Z-order before
  // it is sliced, so each slice fills a few subtrees and the tree's nodes
  // sit in the arena as one unsliced apply would lay them out. DESIGN.md
  // §15 has the sweep the size was picked from.
  static constexpr size_t kApplySlice = 4096;

  // Shrinks every shard, one exclusive hold at a time.
  void ShrinkToFit(int64_t min_side = 2) override;

  // Readers. Each combines per-shard partials computed on the calling
  // thread under one shard's shared lock at a time; partial sums are
  // independent per shard (a shard only holds its own cells).
  int64_t Get(const Cell& cell) const override;  // One shard.
  int64_t RangeSum(const Box& box) const override;
  // The sum of every cell <= `cell`: each shard's part is the range sum
  // from that shard's own DomainLo() to `cell`, read under one shared hold,
  // so a batch that grows a shard's domain downward is seen whole or not at
  // all (with S = 1 the read is linearizable). One descent per shard.
  int64_t PrefixSum(const Cell& cell) const override;
  // Batched range sums: the pieces of every box are routed by index to
  // their shards, into reused per-thread buffers, and each shard's group is
  // answered with ONE batched cube call (corner dedup, then tree-ordered
  // prefix-sum descents inside the shard). A group that is the whole batch
  // with no clipped box (S = 1, a one-box read, boxes spanning every shard)
  // is handed the caller's span; other groups are gathered into a
  // per-thread Box buffer that keeps its capacity, so a steady-state batch
  // allocates nothing here. Results equal per-box RangeSum; out.size()
  // must equal boxes.size().
  void RangeSumBatch(std::span<const Box> boxes,
                     std::span<int64_t> out) const override;
  int64_t TotalSum() const;                     // Sum of shard totals.
  int64_t StorageCells() const override;        // Sum of shard counts.
  // The shards' DynamicDataCube::Stats, summed field by field; each shard
  // is read under its shared lock, one at a time.
  DdcStats Stats() const;
  // Bounding box of the shard domains.
  Cell DomainLo() const override;
  Cell DomainHi() const override;
  std::string name() const override { return "sharded_cube"; }

  // Consistent global snapshot: holds every shard's shared lock (taken in
  // ascending shard order) for the whole walk. The callback must not call
  // back into this object.
  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const;

  // Total growth/shrink re-rootings across all shards so far; lock-free
  // (reads the per-shard mirrors the writers refresh under their locks).
  int64_t ReRootEpoch() const override;

 private:
  // One shard: its cube under a writer-preferring reader-writer lock, plus
  // its re-root epoch mirror (defined in sharded_cube.cc).
  struct Shard;

  // Index of the slab containing first-coordinate `c0` (floor division —
  // coordinates may be negative after growth).
  int64_t SlabIndex(Coord c0) const;
  // Read decomposition of `box`: fn(shard, piece_lo0, piece_hi0) once per
  // shard owning a slab the box touches; nothing for an empty box. A box
  // spanning at least num_shards slabs is passed whole to every shard, in
  // ascending shard order (safe for sums — a shard only holds its own
  // cells — but wrong for writes); a narrower one is clipped to each of
  // its slabs, in ascending slab order, and each of its slabs belongs to a
  // different shard. Allocates nothing.
  template <typename Fn>
  void ForEachReadPiece(const Box& box, Fn&& fn) const;
  // Write-exact decomposition of the dimension-0 extent [lo0, hi0]:
  // fn(shard, piece_lo0, piece_hi0) once per slab it intersects (adjacent
  // slabs of the same shard merged), covering every coordinate exactly
  // once, in ascending slab order. Allocates nothing.
  template <typename Fn>
  void ForEachWritePiece(Coord lo0, Coord hi0, Fn&& fn) const;

  // Lands shard `s`'s group of a routed batch under one exclusive hold, in
  // slices of at most kApplySlice mutations. `group` holds indices into
  // `ops`, or from ops.size() up into `pieces` (the rewritten ranges).
  void ApplyGroup(int s, std::span<const uint32_t> group,
                  std::span<const Mutation> ops,
                  std::span<const Mutation> pieces);

  // Runs fn(cube) on shard `s` under its shared / exclusive lock. These are
  // the shard critical sections (and the "sharded.owner.delay" fault site).
  template <typename Fn>
  void ReadShard(int s, Fn&& fn) const;
  template <typename Fn>
  void WriteShard(int s, Fn&& fn);

  int dims_;
  int num_shards_;
  int64_t slab_width_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_SHARDED_CUBE_H_
