// Operation counters used to reproduce the paper's cost analyses with
// measured numbers (Table 1, Sections 3.2 and 4.3).
//
// Counters are machine-independent: they count stored values touched, not
// nanoseconds, so measured results can be compared directly against the
// closed-form cost functions in cost_model.h.
//
// Every cube counts through one channel: each count site, in the DDC family
// and in the paper baselines (naive, PS, RPS, Basic DDC) alike, bumps the
// calling thread's CountBlock, and CountsOf, the EXPLAIN ledger and the
// registry's ddc.* counters are views of the blocks (DESIGN.md §9).

#ifndef DDC_COMMON_OP_COUNTER_H_
#define DDC_COMMON_OP_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ddc {

// A reading of the four counts, or the difference of two readings.
struct OpCounters {
  // Stored values read while answering queries.
  int64_t values_read = 0;
  // Stored values written (created or modified) while applying updates.
  int64_t values_written = 0;
  // Tree nodes (or blocks) visited.
  int64_t nodes_visited = 0;
  // Face-store consultations of a DDC descent (0 for the baselines).
  int64_t face_lookups = 0;

  OpCounters operator-(const OpCounters& other) const {
    OpCounters out;
    out.values_read = values_read - other.values_read;
    out.values_written = values_written - other.values_written;
    out.nodes_visited = nodes_visited - other.nodes_visited;
    out.face_lookups = face_lookups - other.face_lookups;
    return out;
  }
  OpCounters& operator+=(const OpCounters& other) {
    values_read += other.values_read;
    values_written += other.values_written;
    nodes_visited += other.nodes_visited;
    face_lookups += other.face_lookups;
    return *this;
  }
};

// One thread's counts. A line of its own: no two threads share one.
struct alignas(64) CountBlock {
  std::atomic<int64_t> values_read{0};
  std::atomic<int64_t> values_written{0};
  std::atomic<int64_t> nodes_visited{0};
  std::atomic<int64_t> face_lookups{0};

  OpCounters Read() const {
    return {values_read.load(std::memory_order_relaxed),
            values_written.load(std::memory_order_relaxed),
            nodes_visited.load(std::memory_order_relaxed),
            face_lookups.load(std::memory_order_relaxed)};
  }
};

namespace internal {

// Every block ever handed out. Leaked, like the blocks, so the counts of
// exited threads stay in the sum.
struct CountBlockList {
  std::mutex mutex;
  std::vector<const CountBlock*> blocks;
};
inline CountBlockList& CountBlocks() {
  static CountBlockList* list = new CountBlockList();
  return *list;
}

[[gnu::noinline]] inline CountBlock* NewCountBlock() {
  CountBlock* block = new CountBlock();
  std::lock_guard<std::mutex> lock(CountBlocks().mutex);
  CountBlocks().blocks.push_back(block);
  return block;
}

inline CountBlock& ThreadCountBlock() {
  thread_local CountBlock* block = nullptr;
  if (block == nullptr) block = NewCountBlock();
  return *block;
}

// The owner's read-add-store: no other thread writes the field.
inline void Bump(std::atomic<int64_t>& field, int64_t n) {
  field.store(field.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

}  // namespace internal

// The count sites.
inline void CountValuesRead(int64_t n) {
  internal::Bump(internal::ThreadCountBlock().values_read, n);
}
inline void CountValuesWritten(int64_t n) {
  internal::Bump(internal::ThreadCountBlock().values_written, n);
}
inline void CountNodeVisit() {
  internal::Bump(internal::ThreadCountBlock().nodes_visited, 1);
}
inline void CountFaceLookup() {
  internal::Bump(internal::ThreadCountBlock().face_lookups, 1);
}

// The calling thread's counts so far; views subtract two readings.
inline OpCounters ThreadCounts() {
  return internal::ThreadCountBlock().Read();
}

// The calling thread's counts spent by fn().
template <typename Fn>
OpCounters CountsOf(Fn&& fn) {
  const OpCounters start = ThreadCounts();
  fn();
  return ThreadCounts() - start;
}

// The sum over every thread's block, live and exited.
inline OpCounters AllThreadCounts() {
  internal::CountBlockList& list = internal::CountBlocks();
  std::lock_guard<std::mutex> lock(list.mutex);
  OpCounters sum;
  for (const CountBlock* block : list.blocks) sum += block->Read();
  return sum;
}

}  // namespace ddc

#endif  // DDC_COMMON_OP_COUNTER_H_
