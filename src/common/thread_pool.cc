#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace ddc {

namespace {

// Registry handles, resolved once. queue_depth makes worker starvation
// visible: it counts tasks enqueued but not yet started, and must drain to
// zero once every ParallelFor in flight has returned (its helpers have all
// exited — see the live_helpers protocol below).
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      *obs::MetricsRegistry::Default().GetGauge("threadpool.queue_depth");
  return g;
}

obs::Histogram& QueueWaitHist() {
  static obs::Histogram& h = *obs::MetricsRegistry::Default().GetHistogram(
      "threadpool.task.queue_wait_ns");
  return h;
}

obs::Histogram& TaskRunHist() {
  static obs::Histogram& h = *obs::MetricsRegistry::Default().GetHistogram(
      "threadpool.task.run_ns");
  return h;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  workers_.reserve(static_cast<size_t>(std::max(num_threads, 0)));
  for (int i = 0; i < num_threads; ++i) {
    Worker& worker = *workers_.emplace_back(std::make_unique<Worker>());
    worker.thread = std::thread([this, &worker] { WorkerLoop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  for (const auto& worker : workers_) worker->wake.notify_all();
  for (const auto& worker : workers_) worker->thread.join();
}

void ThreadPool::WorkerLoop(Worker& self) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      self.wake.wait(lock, [&] { return stop_ || !self.queue.empty(); });
      if (self.queue.empty()) return;  // stop_ set and drained.
      task = std::move(self.queue.front());
      self.queue.pop_front();
    }
    task();
  }
}

void ThreadPool::Enqueue(Worker& worker, std::function<void()> task) {
  if (obs::Enabled()) {
    // Wrap the task so queue wait (enqueue -> first instruction) and run
    // time are split apart. The gauge pairing is captured in the wrapper:
    // a task enqueued while enabled always decrements, even if recording
    // gets disabled before it runs.
    const uint64_t enqueue_ns = obs::NowNanos();
    QueueDepthGauge().Add(1);
    task = [inner = std::move(task), enqueue_ns] {
      const uint64_t start_ns = obs::NowNanos();
      QueueDepthGauge().Add(-1);
      QueueWaitHist().Record(static_cast<int64_t>(start_ns - enqueue_ns));
      inner();
      TaskRunHist().Record(static_cast<int64_t>(obs::NowNanos() - start_ns));
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    worker.queue.push_back(std::move(task));
  }
  worker.wake.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t helpers_wanted =
      std::min(workers_.size(), n > 0 ? n - 1 : size_t{0});
  if (n == 1 || helpers_wanted == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared on the caller's stack; helpers must all have *exited* (not merely
  // finished their last index) before this frame returns.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> live_helpers{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
  } state;

  auto drain = [&state, &fn, n] {
    for (;;) {
      const size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
  };

  state.live_helpers.store(helpers_wanted, std::memory_order_relaxed);
  for (size_t h = 0; h < helpers_wanted; ++h) {
    Enqueue(*workers_[h], [&state, drain] {
      if (DDC_FAULTPOINT("pool.task.delay")) {
        // Stall this helper lane only (the caller lane keeps draining):
        // exercises the uneven-progress paths of ParallelFor users. (The
        // sharded cube has its own site, "sharded.owner.delay", inside its
        // shard critical sections.)
        std::this_thread::sleep_for(std::chrono::microseconds(
            50 + static_cast<int64_t>(fault::RandBelow(451))));
      }
      drain();
      // Notify while still holding the mutex: the caller destroys `state`
      // (its stack frame) as soon as wait() observes zero, and wait() can
      // only return once this lock is released — which is after notify_one
      // has finished touching the condition variable. Signalling after the
      // unlock would race the caller's pthread_cond_destroy.
      std::lock_guard<std::mutex> lock(state.done_mutex);
      if (state.live_helpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state.done_cv.notify_one();
      }
    });
  }

  drain();  // The caller is always one of the lanes.

  std::unique_lock<std::mutex> lock(state.done_mutex);
  state.done_cv.wait(lock, [&state] {
    return state.live_helpers.load(std::memory_order_acquire) == 0;
  });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    // DDC_POOL_THREADS overrides the sizing — tests and sanitizer runs use
    // it to force cross-thread execution on single-core hosts (where the
    // default would be 0 workers and ParallelFor would always run inline).
    if (const char* env = std::getenv("DDC_POOL_THREADS")) {
      const int forced = std::atoi(env);
      if (forced >= 0) return std::min(forced, 32);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const int workers = hw > 1 ? static_cast<int>(hw) - 1 : 0;
    return std::min(workers, 8);
  }());
  return pool;
}

}  // namespace ddc
