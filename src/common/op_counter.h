// Operation counters used to reproduce the paper's cost analyses with
// measured numbers (Table 1, Sections 3.2 and 4.3).
//
// Counters are machine-independent: they count stored values touched, not
// nanoseconds, so measured results can be compared directly against the
// closed-form cost functions in cost_model.h.

#ifndef DDC_COMMON_OP_COUNTER_H_
#define DDC_COMMON_OP_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace ddc {

// NOTE on thread-safety and the metrics registry: OpCounters is plain
// mutable state updated by const query paths, so it is safe only while the
// owning structure is accessed from a single thread (or under an exclusive
// lock); the concurrent facades construct their wrapped cubes with
// `enable_counters = false`. That used to mean per-value costs were simply
// lost under the facades. DdcCore now *additionally* routes every count
// into the process-wide obs::MetricsRegistry (relaxed-atomic counters
// ddc.values_read / ddc.values_written / ddc.nodes_visited, safe under
// shared locks), so OpCounters is a thin per-cube view for the paper's
// machine-independent cost analyses, while the registry carries the same
// accounting process-wide — including everything the concurrent facades do.
struct OpCounters {
  // Stored values read while answering queries.
  int64_t values_read = 0;
  // Stored values written (created or modified) while applying updates.
  int64_t values_written = 0;
  // Tree nodes (or blocks) visited.
  int64_t nodes_visited = 0;

  void Reset() { *this = OpCounters(); }

  OpCounters operator-(const OpCounters& other) const {
    OpCounters out;
    out.values_read = values_read - other.values_read;
    out.values_written = values_written - other.values_written;
    out.nodes_visited = nodes_visited - other.nodes_visited;
    return out;
  }

  int64_t total_touched() const { return values_read + values_written; }
};

// Thread-safe operation statistics for ShardedCube, kept per shard. Unlike
// OpCounters these count whole operations (not stored values touched), so
// they stay meaningful when many threads mutate them concurrently; every
// field is an independent relaxed atomic — totals are exact once the
// structure is quiesced, and monotone lower bounds while it is running.
// Like OpCounters, this is a thin per-instance view: the facade mirrors
// every event into the registry's sharded.* counters, so `ddctool stats`
// and the renderers see one unified account (see src/obs/metrics.h).
struct ConcurrentOpStats {
  std::atomic<int64_t> point_writes{0};   // Add/Set calls applied.
  std::atomic<int64_t> batches{0};        // ApplyBatch calls.
  std::atomic<int64_t> batched_ops{0};    // Ops applied through ApplyBatch.
  std::atomic<int64_t> point_reads{0};    // Get calls.
  // RangeSum/PrefixSum/TotalSum calls, and boxes of RangeSumBatch calls.
  std::atomic<int64_t> range_queries{0};
  // Growth/shrink re-rootings: ShardedCube keeps each shard's re-root
  // epoch here, refreshed by the writer under the shard's exclusive lock.
  std::atomic<int64_t> reroots{0};

  // Plain-value copy for printing (taken at quiescence).
  struct Snapshot {
    int64_t point_writes, batches, batched_ops, point_reads, range_queries,
        reroots;
  };
  Snapshot Read() const {
    return {point_writes.load(std::memory_order_relaxed),
            batches.load(std::memory_order_relaxed),
            batched_ops.load(std::memory_order_relaxed),
            point_reads.load(std::memory_order_relaxed),
            range_queries.load(std::memory_order_relaxed),
            reroots.load(std::memory_order_relaxed)};
  }
};

}  // namespace ddc

#endif  // DDC_COMMON_OP_COUNTER_H_
