// Tuning options for the Dynamic Data Cube.

#ifndef DDC_DDC_DDC_OPTIONS_H_
#define DDC_DDC_DDC_OPTIONS_H_

#include "bctree/bc_tree.h"

namespace ddc {

struct DdcOptions {
  // Fanout of the B_c trees storing one-dimensional row-sum groups
  // (Section 4.1). The default (8) is tuned to the cache-line node budget:
  // 8 sums x 8 bytes fill exactly one 64-byte line, so one descent level is
  // one line, and the power-of-two fanout keeps child addressing shift/mask
  // (branchless). The bench_kernels fanout sweep on the reference host
  // measured (descent queries/sec, fanout-8 = 1.00x):
  //   cache-resident tree (capacity 32768, smoke mode):
  //     7 -> 0.65x (same line budget, but div/mod child addressing),
  //     8 -> 1.00x (one line per level, shift/mask),
  //    15 -> 0.45x (two lines per level and div/mod),
  //    16 -> 0.61x (shallower tree, but two line fills per level);
  //   out-of-cache tree (capacity 1<<20, full mode): 7 -> 0.93x,
  //    15 -> 0.98x, 16 -> 1.03x — once every level misses to DRAM the
  //    shallower fanout-16 tree ties fanout-8 within run noise, but never
  //    beats it beyond noise, and loses badly once any level caches.
  //   With -DDDC_NATIVE=ON (AVX2 MaskedPrefixSum8), fanout 8 widens its
  //   lead: 7 -> 0.30x, 15 -> 0.20x, 16 -> 0.42x (smoke host run).
  // Re-measure with bench_kernels when changing this.
  int bc_fanout = BcTree::kDefaultFanout;

  // Store 1-D row-sum groups in the dense Eytzinger/implicit-offset B_c
  // layout (one flat 64-byte-aligned slab, no child pointers; see
  // bc_tree.h). Fastest descents, but allocates the full conceptual tree up
  // front, so it forfeits the paper's sparse-subtree space behaviour —
  // leave off except for dense, bulk-built cubes.
  bool bc_dense = false;

  // Ablation: store one-dimensional row-sum groups in Fenwick trees instead
  // of B_c trees (same asymptotics, different constants/storage).
  bool use_fenwick = false;

  // When false, the cube does not record operation counters. Queries are
  // then strictly const (no mutable state touched), which ShardedCube
  // relies on to run readers in parallel under a shard's shared lock.
  bool enable_counters = true;

  // The Section 4.4 space optimization: number of tree levels elided
  // immediately above the leaves. With elide_levels == h, the smallest
  // overlay boxes have side 2^(h+1) and the regions below them are stored as
  // raw arrays of A cells; queries may then have to sum up to 2^((h+1)*d)
  // adjacent leaf cells at the bottom of the descent. h == 0 reproduces the
  // full tree of Figure 9. The option propagates into nested (secondary)
  // DDCs.
  int elide_levels = 0;
};

}  // namespace ddc

#endif  // DDC_DDC_DDC_OPTIONS_H_
