// The coarse facade's old name: a one-shard ShardedCube. Kept only so that
// perfbench/e2e_bench.cc, which names it, still compiles; new code builds
// ShardedCube(dims, side, 1).

#ifndef DDC_CONCURRENT_CONCURRENT_CUBE_H_
#define DDC_CONCURRENT_CONCURRENT_CUBE_H_

#include <cstdint>

#include "concurrent/sharded_cube.h"

namespace ddc {

struct ConcurrentCube : ShardedCube {
  ConcurrentCube(int d, int64_t s) : ShardedCube(d, s, 1) {}
};

}  // namespace ddc

#endif  // DDC_CONCURRENT_CONCURRENT_CUBE_H_
