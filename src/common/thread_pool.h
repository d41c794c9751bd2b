// ThreadPool: a small fixed worker pool for fanning short leaf work out
// across cores (ShardedCube's multi-shard write groups, ConcurrentCube's
// kSet base-value reads).
//
// Design constraints, in order:
//   1. The caller always participates: ParallelFor pulls indices on the
//      calling thread too, so progress never depends on a worker being
//      free — a busy or size-1 pool can never deadlock the caller.
//   2. A task may hold one leaf lock (ShardedCube applies each group of a
//      multi-shard batch under that shard's exclusive lock) but must not
//      wait on the pool: no nested ParallelFor from inside a task, and no
//      lock whose holder might itself be waiting on the pool.
//   3. Degrades gracefully: on a single-core host (or n <= 1) the loop runs
//      inline with zero synchronization, so the serial batched path is
//      never penalized.
//   4. Helper h of every ParallelFor goes to worker h, so a fan-out of k
//      indices always lands on the caller and workers 0 .. k-2. Memory a
//      task allocates (a shard's tree nodes, say) then stays in those
//      threads' malloc arenas instead of spreading over every worker's;
//      with glibc, which keeps freed memory per arena, a shared queue let
//      repeated large fan-outs grow the resident set by one cube per
//      worker.
//
// The process-wide Shared() pool sizes itself to the hardware and is what
// the concurrent cubes use; owning a private pool is supported for tests.

#ifndef DDC_COMMON_THREAD_POOL_H_
#define DDC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ddc {

class ThreadPool {
 public:
  // `num_threads` worker threads in addition to participating callers;
  // 0 is allowed and makes every ParallelFor run inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Invokes fn(0) .. fn(n-1), distributing indices across the pool and the
  // calling thread, and returns when every invocation has completed. fn
  // must not call back into this pool and must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Process-wide pool: hardware_concurrency - 1 workers (the caller is the
  // remaining lane), capped at 8 — batched fan-out saturates well before
  // that, and a modest cap keeps many-core machines polite.
  static ThreadPool& Shared();

 private:
  struct Worker {
    std::deque<std::function<void()>> queue;  // Guarded by mutex_.
    std::condition_variable wake;
    std::thread thread;
  };

  void WorkerLoop(Worker& self);
  void Enqueue(Worker& worker, std::function<void()> task);

  std::mutex mutex_;
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ddc

#endif  // DDC_COMMON_THREAD_POOL_H_
