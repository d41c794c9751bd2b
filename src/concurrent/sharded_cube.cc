#include "concurrent/sharded_cube.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace ddc {

namespace {

// Process-wide mirrors of the per-shard ConcurrentOpStats fields (plus the
// mailbox distributions): per-shard structs keep write paths
// contention-free, the registry carries the unified account the renderers
// and `ddctool stats` read. Resolved once.
//
// Determinism note (ddctool relies on it): counters and gauges here are
// deterministic for a fixed single-threaded workload — message counts
// depend only on the decomposition, stalls are structurally zero under the
// synchronous protocol, and the queue-depth gauges drain back to zero at
// quiescence. Anything timing-dependent (wait/run nanoseconds, dequeue
// batch sizes) lives in histograms only.
struct ShardedObs {
  obs::Counter& point_writes;
  obs::Counter& batches;
  obs::Counter& batched_ops;
  obs::Counter& point_reads;
  obs::Counter& range_queries;
  obs::Counter& reroots;
  obs::Counter& mailbox_messages;
  obs::Counter& mailbox_stalls;
  obs::Histogram& batch_group_size;
  obs::Histogram& mailbox_wait_ns;
  obs::Histogram& mailbox_run_ns;
  obs::Histogram& mailbox_dequeue_batch;

  static ShardedObs& Get() {
    static ShardedObs* obs = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new ShardedObs{*reg.GetCounter("sharded.point_writes"),
                            *reg.GetCounter("sharded.batches"),
                            *reg.GetCounter("sharded.batched_ops"),
                            *reg.GetCounter("sharded.point_reads"),
                            *reg.GetCounter("sharded.range_queries"),
                            *reg.GetCounter("sharded.reroots"),
                            *reg.GetCounter("sharded.mailbox.messages"),
                            *reg.GetCounter("sharded.mailbox.stalls"),
                            *reg.GetHistogram("sharded.batch.group_size"),
                            *reg.GetHistogram("sharded.mailbox.wait_ns"),
                            *reg.GetHistogram("sharded.mailbox.run_ns"),
                            *reg.GetHistogram("sharded.mailbox.dequeue_batch")};
    }();
    return *obs;
  }
};

// Owner-side batched dequeue width (one index publication per batch).
constexpr size_t kDequeueBatch = 8;

// Source of never-reused cube ids for the thread-local producer cache.
std::atomic<uint64_t> g_next_cube_id{1};

// Thread-local cache of producer registrations: maps cube id -> Producer*
// so the hot path skips the registry mutex. Tiny and round-robin evicted;
// an evicted entry just means one extra mutex-protected lookup. Keyed by a
// never-reused id, so a stale entry cannot alias a new cube that recycled
// the address.
struct TlsProducerCache {
  static constexpr int kEntries = 4;
  struct Entry {
    uint64_t cube_id = 0;
    void* producer = nullptr;
  };
  Entry entries[kEntries];
  int next_evict = 0;
};
thread_local TlsProducerCache g_tls_producer_cache;

DdcOptions WithoutCounters(DdcOptions options) {
  options.enable_counters = false;
  return options;
}

// Floor division (C++ integer division truncates toward zero; slab indices
// must be continuous across negative coordinates).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) {
  const int64_t m = a % b;
  return m < 0 ? m + b : m;
}

// Folds one owner's per-request ledger into the caller's active ledger
// (counts add; tree depth is a high-water mark). Runs on the calling
// thread after Wait(), so the merge itself is single-threaded.
void MergeLedger(obs::CostLedger& into, const obs::CostLedger& from) {
  into.nodes_visited += from.nodes_visited;
  into.values_read += from.values_read;
  into.values_written += from.values_written;
  into.face_lookups += from.face_lookups;
  into.tree_depth = std::max(into.tree_depth, from.tree_depth);
  into.corner_terms += from.corner_terms;
  into.corners_deduped += from.corners_deduped;
  into.unique_corners += from.unique_corners;
  into.overlay_terms += from.overlay_terms;
  into.overlay_journal_boxes += from.overlay_journal_boxes;
  into.shard_groups += from.shard_groups;
  into.shard_subqueries += from.shard_subqueries;
}

// The two-phase quiesce rendezvous (ForEachNonZero): owners check in on
// `arrivals`, park on `gate`, and check out on `released` after the caller
// opens the gate — the caller must not return (and destroy this struct)
// until `released` reports every owner has moved past the gate.
struct BarrierCtx {
  std::atomic<uint32_t> gate{0};
  internal::CompletionSlot released;
};

}  // namespace

// ---------------------------------------------------------------------------
// Construction / destruction.

ShardedCube::ShardedCube(int dims, int64_t initial_side, int num_shards,
                         DdcOptions options)
    : dims_(dims),
      num_shards_(num_shards),
      // max(num_shards, 1): keep a contract violation (num_shards < 1) on
      // the DDC_CHECK below instead of a divide-by-zero in this initializer.
      slab_width_(std::max<int64_t>(
          1, initial_side / std::max(num_shards, 1))),
      cube_id_(g_next_cube_id.fetch_add(1, std::memory_order_relaxed)),
      shards_(std::make_unique<Shard[]>(
          static_cast<size_t>(std::max(num_shards, 0)))) {
  DDC_CHECK(num_shards >= 1);
  for (int s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.cube = std::make_unique<DynamicDataCube>(dims, initial_side,
                                                   WithoutCounters(options));
    // Shard-aware growth hook: runs on the shard's owner thread, inside the
    // mutation that triggered the re-root (exclusive ownership — growth
    // needs no cross-shard quiescing).
    shard.cube->lifecycle().Subscribe([&shard](const ReRootEvent&) {
      shard.reroots.fetch_add(1, std::memory_order_relaxed);
      shard.stats.reroots.fetch_add(1, std::memory_order_relaxed);
      if (obs::Enabled()) ShardedObs::Get().reroots.Increment();
    });
    shard.depth_gauge = obs::MetricsRegistry::Default().GetGauge(
        "sharded.mailbox.queue_depth.s" + std::to_string(s));
  }
  // Start the owners only after every shard is fully initialized: an owner
  // touches sibling-agnostic state only, but its first drain round walks
  // the producer list and the fault/obs hooks of its own shard.
  for (int s = 0; s < num_shards_; ++s) {
    shards_[static_cast<size_t>(s)].owner =
        std::thread([this, s] { OwnerLoop(s); });
  }
}

ShardedCube::~ShardedCube() {
  stop_.store(true, std::memory_order_release);
  for (int s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.doorbell.fetch_add(1, std::memory_order_release);
    shard.doorbell.notify_all();
  }
  // Owners exit only once a full drain round finds their lanes empty, so
  // every request enqueued before destruction is processed exactly once.
  for (int s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    if (shard.owner.joinable()) shard.owner.join();
  }
}

// ---------------------------------------------------------------------------
// Decomposition (unchanged from the lock-striped implementation).

int64_t ShardedCube::SlabIndex(Coord c0) const {
  return FloorDiv(c0, slab_width_);
}

int ShardedCube::ShardOf(const Cell& cell) const {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  return static_cast<int>(FloorMod(SlabIndex(cell[0]), num_shards_));
}

std::vector<ShardedCube::SubQuery> ShardedCube::Decompose(
    const Box& box) const {
  std::vector<SubQuery> sub;
  if (box.IsEmpty()) return sub;
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  const int64_t span = slab_hi - slab_lo + 1;
  if (span >= num_shards_) {
    // Every shard owns slabs inside the box; clipping along dimension 0
    // buys nothing (each shard's cube only holds its own cells anyway).
    sub.reserve(static_cast<size_t>(num_shards_));
    for (int s = 0; s < num_shards_; ++s) {
      sub.push_back({s, box});
    }
    return sub;
  }
  // Fewer slabs than shards: each intersecting slab belongs to a distinct
  // shard. Clip the sub-box to the slab so the shard query touches only the
  // relevant part of its domain.
  sub.reserve(static_cast<size_t>(span));
  for (int64_t slab = slab_lo; slab <= slab_hi; ++slab) {
    SubQuery q;
    q.shard = static_cast<int>(FloorMod(slab, num_shards_));
    q.box = box;
    q.box.lo[0] = std::max<Coord>(box.lo[0], slab * slab_width_);
    q.box.hi[0] = std::min<Coord>(box.hi[0], slab * slab_width_ +
                                                 slab_width_ - 1);
    sub.push_back(std::move(q));
  }
  // Ascending shard index: the stable billing/reporting order.
  std::sort(sub.begin(), sub.end(),
            [](const SubQuery& a, const SubQuery& b) {
              return a.shard < b.shard;
            });
  return sub;
}

std::vector<ShardedCube::SubQuery> ShardedCube::DecomposeWrite(
    const Box& box) const {
  std::vector<SubQuery> sub;
  if (box.IsEmpty()) return sub;
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  sub.reserve(static_cast<size_t>(
      std::min<int64_t>(slab_hi - slab_lo + 1, 64)));
  for (int64_t slab = slab_lo; slab <= slab_hi; ++slab) {
    const int shard = static_cast<int>(FloorMod(slab, num_shards_));
    const Coord lo0 = std::max<Coord>(box.lo[0], slab * slab_width_);
    const Coord hi0 =
        std::min<Coord>(box.hi[0], slab * slab_width_ + slab_width_ - 1);
    // Adjacent slabs of the same shard (only possible with one shard)
    // merge into a single sub-box.
    if (!sub.empty() && sub.back().shard == shard &&
        sub.back().box.hi[0] + 1 == lo0) {
      sub.back().box.hi[0] = hi0;
      continue;
    }
    SubQuery q;
    q.shard = shard;
    q.box = box;
    q.box.lo[0] = lo0;
    q.box.hi[0] = hi0;
    sub.push_back(std::move(q));
  }
  return sub;
}

// ---------------------------------------------------------------------------
// Mailbox plumbing.

ShardedCube::Producer& ShardedCube::LocalProducer() const {
  TlsProducerCache& cache = g_tls_producer_cache;
  for (const TlsProducerCache::Entry& e : cache.entries) {
    if (e.cube_id == cube_id_) return *static_cast<Producer*>(e.producer);
  }
  // Cold path: register (or re-find) this thread's lanes under the mutex.
  Producer* producer;
  {
    std::lock_guard<std::mutex> lock(producer_mutex_);
    Producer*& by_thread = producer_by_thread_[std::this_thread::get_id()];
    if (by_thread == nullptr) {
      auto owned = std::make_unique<Producer>(num_shards_);
      owned->next = producer_head_.load(std::memory_order_relaxed);
      by_thread = owned.get();
      producers_.push_back(std::move(owned));
      // Publish AFTER the lanes are constructed: owners traverse via this
      // head with acquire and must see initialized rings.
      producer_head_.store(by_thread, std::memory_order_release);
    }
    producer = by_thread;
  }
  TlsProducerCache::Entry& victim = cache.entries[cache.next_evict];
  cache.next_evict = (cache.next_evict + 1) % TlsProducerCache::kEntries;
  victim.cube_id = cube_id_;
  victim.producer = producer;
  return *producer;
}

void ShardedCube::Submit(int shard_idx, ShardRequest req) const {
  Shard& shard = shards_[static_cast<size_t>(shard_idx)];
  if (obs::Enabled()) {
    ShardedObs::Get().mailbox_messages.Increment();
    shard.depth_gauge->Add(1);
    // Nonzero by construction (steady_clock at runtime); doubles as the
    // "gauge was incremented" marker the owner uses to keep the pair
    // balanced even if obs is toggled off mid-flight.
    req.enqueue_ns = static_cast<int64_t>(obs::NowNanos());
    if (req.enqueue_ns == 0) req.enqueue_ns = 1;
  }
  shard.stats.mailbox_messages.fetch_add(1, std::memory_order_relaxed);
  SpscMailbox<ShardRequest>& lane =
      LocalProducer().lanes[static_cast<size_t>(shard_idx)].ring;
  while (!lane.TryPush(req)) {
    // Unreachable under the synchronous protocol (<= 1 in-flight request
    // per lane); kept as a counted, yielding backstop rather than a check
    // so future pipelined callers degrade instead of aborting.
    shard.stats.mailbox_stalls.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) ShardedObs::Get().mailbox_stalls.Increment();
    std::this_thread::yield();
  }
  shard.doorbell.fetch_add(1, std::memory_order_release);
  shard.doorbell.notify_one();
}

void ShardedCube::RunOnShard(int shard_idx,
                             void (*fn)(DynamicDataCube&, void*),
                             void* ctx) const {
  internal::CompletionSlot done;
  done.Arm(1);
  obs::CostLedger local;
  obs::CostLedger* active = obs::ActiveLedger();
  ShardRequest req;
  req.kind = ShardRequest::Kind::kCall;
  req.fn = fn;
  req.out = ctx;
  req.ledger = active != nullptr ? &local : nullptr;
  req.done = &done;
  Submit(shard_idx, req);
  done.Wait();
  if (active != nullptr) MergeLedger(*active, local);
}

void ShardedCube::Broadcast(void (*fn)(DynamicDataCube&, void*), void* ctxs,
                            size_t stride) const {
  internal::CompletionSlot done;
  done.Arm(static_cast<uint32_t>(num_shards_));
  obs::CostLedger* active = obs::ActiveLedger();
  std::vector<obs::CostLedger> slots;
  if (active != nullptr) slots.resize(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    ShardRequest req;
    req.kind = ShardRequest::Kind::kCall;
    req.fn = fn;
    req.out = static_cast<char*>(ctxs) + static_cast<size_t>(s) * stride;
    req.ledger =
        active != nullptr ? &slots[static_cast<size_t>(s)] : nullptr;
    req.done = &done;
    Submit(s, req);
  }
  done.Wait();
  if (active != nullptr) {
    for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  }
}

// ---------------------------------------------------------------------------
// Owner threads.

void ShardedCube::OwnerLoop(int s) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  // Written once here, read only by this thread (the Process assertion) —
  // no synchronization needed.
  shard.owner_id = std::this_thread::get_id();
  static const bool multicore = std::thread::hardware_concurrency() > 1;
  ShardRequest buf[kDequeueBatch];
  while (true) {
    if (DrainShard(s, buf, kDequeueBatch)) continue;
    if (multicore) {
      // Short poll before parking: on a multi-core host the next request
      // usually lands within the spin window, and the futex round trip is
      // the dominant cost of a synchronous op.
      bool found = false;
      for (int i = 0; i < 128 && !found; ++i) {
        found = DrainShard(s, buf, kDequeueBatch);
      }
      if (found) continue;
    }
    // Read the ticket BEFORE the verification scan: a producer that pushes
    // after the scan has already bumped the doorbell past `ticket`, so the
    // wait below returns immediately — no lost wakeup.
    const uint32_t ticket = shard.doorbell.load(std::memory_order_acquire);
    if (DrainShard(s, buf, kDequeueBatch)) continue;
    if (stop_.load(std::memory_order_acquire)) break;  // Drained and stopped.
    shard.doorbell.wait(ticket, std::memory_order_acquire);
  }
}

bool ShardedCube::DrainShard(int s, ShardRequest* buf, size_t buf_size) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  bool any = false;
  for (Producer* p = producer_head_.load(std::memory_order_acquire);
       p != nullptr; p = p->next) {
    SpscMailbox<ShardRequest>& lane = p->lanes[static_cast<size_t>(s)].ring;
    for (;;) {
      const size_t n = lane.PopBatch(buf, buf_size);
      if (n == 0) break;
      any = true;
      if (obs::Enabled()) {
        ShardedObs::Get().mailbox_dequeue_batch.Record(
            static_cast<int64_t>(n));
      }
      for (size_t i = 0; i < n; ++i) Process(shard, buf[i]);
      if (n < buf_size) break;
    }
  }
  return any;
}

void ShardedCube::Process(Shard& shard, const ShardRequest& req) {
  // The exclusive-ownership contract, enforced in debug builds: only the
  // shard's owner thread ever executes against its cube (outside the
  // quiesce barrier, where the owner is parked while the caller walks).
  DDC_DCHECK(std::this_thread::get_id() == shard.owner_id);
  if (DDC_FAULTPOINT("sharded.owner.delay")) {
    // Stall this owner only: long enough for callers to pile requests into
    // the lanes, which exercises drain-exactly-once and batched dequeue.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  int64_t run_start = 0;
  if (req.enqueue_ns != 0) {
    const int64_t now = static_cast<int64_t>(obs::NowNanos());
    shard.depth_gauge->Add(-1);
    ShardedObs::Get().mailbox_wait_ns.Record(now - req.enqueue_ns);
    run_start = now;
  }
  if (req.kind == ShardRequest::Kind::kBarrier) {
    auto* ctx = static_cast<BarrierCtx*>(req.out);
    // Check in, park until the caller opens the gate, check out. The
    // caller waits on `released` before destroying ctx, so the gate read
    // and the final fetch_sub land on live memory.
    req.done->CompleteOne();
    uint32_t g;
    while ((g = ctx->gate.load(std::memory_order_acquire)) == 0) {
      ctx->gate.wait(g, std::memory_order_acquire);
    }
    ctx->released.CompleteOne();
    return;
  }
  {
    // Attribute tree work to the caller's EXPLAIN ANALYZE ledger through
    // the private per-request slot (merged caller-side after Wait, so two
    // owners never write one ledger concurrently).
    obs::ScopedCostLedger scope(req.ledger);
    switch (req.kind) {
      case ShardRequest::Kind::kApply:
        shard.cube->ApplyBatch(std::span<const Mutation>(
            static_cast<const Mutation*>(req.in), req.count));
        break;
      case ShardRequest::Kind::kSumBatch:
        shard.cube->RangeSumBatch(
            std::span<const Box>(static_cast<const Box*>(req.in), req.count),
            std::span<int64_t>(static_cast<int64_t*>(req.out), req.count));
        break;
      case ShardRequest::Kind::kCall:
        req.fn(*shard.cube, req.out);
        break;
      case ShardRequest::Kind::kBarrier:
        break;  // Handled above.
    }
  }
  if (run_start != 0) {
    ShardedObs::Get().mailbox_run_ns.Record(
        static_cast<int64_t>(obs::NowNanos()) - run_start);
  }
  // The completion release pairs with the caller's acquire in Wait(): every
  // partial written above happens-before the caller's gather. After the
  // fetch_sub the caller may return and destroy the slot; the trailing
  // notify is address-only (no access to the atomic's storage).
  if (req.done != nullptr) req.done->CompleteOne();
}

// ---------------------------------------------------------------------------
// Writers.

void ShardedCube::Add(const Cell& cell, int64_t delta) {
  struct Ctx {
    const Cell* cell;
    int64_t delta;
  } ctx{&cell, delta};
  Shard& shard = shards_[static_cast<size_t>(ShardOf(cell))];
  shard.stats.point_writes.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().point_writes.Increment();
  RunOnShard(ShardOf(cell),
             +[](DynamicDataCube& cube, void* p) {
               auto* c = static_cast<Ctx*>(p);
               cube.Add(*c->cell, c->delta);
             },
             &ctx);
}

void ShardedCube::Set(const Cell& cell, int64_t value) {
  struct Ctx {
    const Cell* cell;
    int64_t value;
  } ctx{&cell, value};
  Shard& shard = shards_[static_cast<size_t>(ShardOf(cell))];
  shard.stats.point_writes.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().point_writes.Increment();
  RunOnShard(ShardOf(cell),
             +[](DynamicDataCube& cube, void* p) {
               auto* c = static_cast<Ctx*>(p);
               cube.Set(*c->cell, c->value);
             },
             &ctx);
}

void ShardedCube::RangeAdd(const Box& box, int64_t delta) {
  const Mutation m = MakeRangeAdd(box.lo, box.hi, delta);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

void ShardedCube::RangeSet(const Box& box, int64_t value) {
  const Mutation m = MakeRangeSet(box.lo, box.hi, value);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

bool ShardedCube::ApplyBatch(std::span<const Mutation> ops) {
  if (!BatchWellFormed(ops, dims_)) return false;
  if (ops.empty()) return true;
  obs::TraceSpan span("sharded.batch_apply",
                      static_cast<int64_t>(ops.size()));
  // Group the mutations by shard; batch order is preserved within each
  // group, which is all the common contract requires (mutations in
  // different shards target different cells and commute; a range mutation
  // splits into disjoint per-shard sub-boxes that inherit its position in
  // each shard's group).
  std::vector<MutationBatch> groups(static_cast<size_t>(num_shards_));
  for (const Mutation& op : ops) {
    if (!op.is_range()) {
      groups[static_cast<size_t>(ShardOf(op.cell))].push_back(op);
      continue;
    }
    Box box = op.box();
    if (box.IsEmpty()) continue;
    if (op.delta == 0) {
      // A zero range-add is a no-op; a zero range-set only matters where
      // values already live, so clip it to the current overall domain
      // before fanning out slabs (mirrors DynamicDataCube::RangeSet).
      if (op.kind == MutationKind::kRangeAdd) continue;
      box = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
      if (box.IsEmpty()) continue;
    }
    for (const SubQuery& q : DecomposeWrite(box)) {
      Mutation sub = op;
      sub.cell = q.box.lo;
      sub.hi = q.box.hi;
      groups[static_cast<size_t>(q.shard)].push_back(std::move(sub));
    }
  }
  obs::CostLedger* active = obs::ActiveLedger();
  if (active != nullptr) {
    // The fan-out shape, recorded on the calling thread (the per-shard tree
    // work is attributed through the per-request ledger slots below).
    for (const MutationBatch& group : groups) {
      if (group.empty()) continue;
      ++active->shard_groups;
      active->shard_subqueries += static_cast<int64_t>(group.size());
    }
  }
  // Scatter one kApply per touched shard, then wait for all owners. Each
  // owner applies its whole group between two request boundaries, which is
  // what makes the batch atomic per shard.
  internal::CompletionSlot done;
  uint32_t touched = 0;
  for (const MutationBatch& group : groups) {
    if (!group.empty()) ++touched;
  }
  if (touched == 0) return true;
  done.Arm(touched);
  std::vector<obs::CostLedger> slots;
  if (active != nullptr) slots.resize(static_cast<size_t>(num_shards_));
  bool counted_batch = false;
  for (int s = 0; s < num_shards_; ++s) {
    const MutationBatch& group = groups[static_cast<size_t>(s)];
    if (group.empty()) continue;
    Shard& shard = shards_[static_cast<size_t>(s)];
    // The batch itself is billed once, to its lowest touched shard; the op
    // count is billed where the ops landed.
    if (!counted_batch) {
      shard.stats.batches.fetch_add(1, std::memory_order_relaxed);
      if (obs::Enabled()) ShardedObs::Get().batches.Increment();
      counted_batch = true;
    }
    shard.stats.batched_ops.fetch_add(static_cast<int64_t>(group.size()),
                                      std::memory_order_relaxed);
    if (obs::Enabled()) {
      ShardedObs::Get().batched_ops.Add(static_cast<int64_t>(group.size()));
      ShardedObs::Get().batch_group_size.Record(
          static_cast<int64_t>(group.size()));
    }
    ShardRequest req;
    req.kind = ShardRequest::Kind::kApply;
    req.in = group.data();
    req.count = static_cast<uint32_t>(group.size());
    req.ledger =
        active != nullptr ? &slots[static_cast<size_t>(s)] : nullptr;
    req.done = &done;
    Submit(s, req);
  }
  done.Wait();
  if (active != nullptr) {
    for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  }
  return true;
}

void ShardedCube::ShrinkToFit(int64_t min_side) {
  // All owners read the same immutable context; stride 0.
  Broadcast(
      +[](DynamicDataCube& cube, void* p) {
        cube.ShrinkToFit(*static_cast<const int64_t*>(p));
      },
      &min_side, 0);
}

// ---------------------------------------------------------------------------
// Readers.

int64_t ShardedCube::Get(const Cell& cell) const {
  struct Ctx {
    const Cell* cell;
    int64_t result;
  } ctx{&cell, 0};
  const int s = ShardOf(cell);
  const Shard& shard = shards_[static_cast<size_t>(s)];
  shard.stats.point_reads.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().point_reads.Increment();
  RunOnShard(s,
             +[](DynamicDataCube& cube, void* p) {
               auto* c = static_cast<Ctx*>(p);
               c->result = cube.Get(*c->cell);
             },
             &ctx);
  return ctx.result;
}

int64_t ShardedCube::RangeSum(const Box& box) const {
  if (box.IsEmpty()) {
    shards_[0].stats.range_queries.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
    return 0;
  }
  const int64_t slab_lo = SlabIndex(box.lo[0]);
  const int64_t slab_hi = SlabIndex(box.hi[0]);
  if (slab_lo == slab_hi) {
    // Single-slab fast path: the read-heavy common case. No decomposition
    // vectors — one request, one owner round trip.
    const int s = static_cast<int>(FloorMod(slab_lo, num_shards_));
    const Shard& shard = shards_[static_cast<size_t>(s)];
    shard.stats.range_queries.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
    int64_t result = 0;
    internal::CompletionSlot done;
    done.Arm(1);
    obs::CostLedger local;
    obs::CostLedger* active = obs::ActiveLedger();
    ShardRequest req;
    req.kind = ShardRequest::Kind::kSumBatch;
    req.in = &box;
    req.out = &result;
    req.count = 1;
    req.ledger = active != nullptr ? &local : nullptr;
    req.done = &done;
    Submit(s, req);
    done.Wait();
    if (active != nullptr) MergeLedger(*active, local);
    return result;
  }
  // Cross-shard: scatter one single-box sub-query per touched shard and
  // gather the independent partials — no consistency protocol needed (each
  // shard's cube only holds its own cells, and partial sums add).
  const std::vector<SubQuery> sub = Decompose(box);
  const size_t bill = sub.empty() ? 0 : static_cast<size_t>(sub[0].shard);
  shards_[bill].stats.range_queries.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  if (sub.empty()) return 0;
  std::vector<int64_t> partials(sub.size(), 0);
  internal::CompletionSlot done;
  done.Arm(static_cast<uint32_t>(sub.size()));
  obs::CostLedger* active = obs::ActiveLedger();
  std::vector<obs::CostLedger> slots;
  if (active != nullptr) slots.resize(sub.size());
  for (size_t k = 0; k < sub.size(); ++k) {
    ShardRequest req;
    req.kind = ShardRequest::Kind::kSumBatch;
    req.in = &sub[k].box;
    req.out = &partials[k];
    req.count = 1;
    req.ledger = active != nullptr ? &slots[k] : nullptr;
    req.done = &done;
    Submit(sub[k].shard, req);
  }
  done.Wait();
  int64_t sum = 0;
  for (int64_t p : partials) sum += p;
  if (active != nullptr) {
    for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  }
  return sum;
}

void ShardedCube::RangeSumBatch(std::span<const Box> boxes,
                                std::span<int64_t> out) const {
  DDC_CHECK(boxes.size() == out.size());
  if (boxes.empty()) return;
  obs::TraceSpan span("sharded.range_sum_batch",
                      static_cast<int64_t>(boxes.size()));

  // Bucket the sub-queries of every box by owning shard. Each bucket is
  // answered with one batched cube call on its owner thread, so corners
  // shared between the batch's boxes dedup inside the shard.
  struct ShardWork {
    std::vector<Box> boxes;
    std::vector<size_t> query;  // Parallel: which output each box feeds.
    std::vector<int64_t> partial;
  };
  std::vector<ShardWork> work(static_cast<size_t>(num_shards_));
  for (size_t q = 0; q < boxes.size(); ++q) {
    out[q] = 0;
    for (SubQuery& sub : Decompose(boxes[q])) {
      ShardWork& w = work[static_cast<size_t>(sub.shard)];
      w.boxes.push_back(std::move(sub.box));
      w.query.push_back(q);
    }
  }
  std::vector<int> shard_ids;  // Ascending: the stable reporting order.
  for (int s = 0; s < num_shards_; ++s) {
    ShardWork& w = work[static_cast<size_t>(s)];
    if (w.boxes.empty()) continue;
    w.partial.resize(w.boxes.size());
    shard_ids.push_back(s);
  }
  if (shard_ids.empty()) return;
  obs::CostLedger* active = obs::ActiveLedger();
  if (active != nullptr) {
    // Decomposition shape, recorded on the calling thread; the per-shard
    // descents run on owner threads and are folded back in through the
    // per-request ledger slots below.
    active->shard_groups += static_cast<int64_t>(shard_ids.size());
    for (int s : shard_ids) {
      active->shard_subqueries +=
          static_cast<int64_t>(work[static_cast<size_t>(s)].boxes.size());
    }
  }

  ConcurrentOpStats& billing =
      shards_[static_cast<size_t>(shard_ids[0])].stats;
  billing.range_queries.fetch_add(static_cast<int64_t>(boxes.size()),
                                  std::memory_order_relaxed);
  if (obs::Enabled()) {
    ShardedObs::Get().range_queries.Add(static_cast<int64_t>(boxes.size()));
  }

  // Scatter one kSumBatch per touched shard; owners answer concurrently.
  internal::CompletionSlot done;
  done.Arm(static_cast<uint32_t>(shard_ids.size()));
  std::vector<obs::CostLedger> slots;
  if (active != nullptr) slots.resize(shard_ids.size());
  for (size_t k = 0; k < shard_ids.size(); ++k) {
    ShardWork& w = work[static_cast<size_t>(shard_ids[k])];
    ShardRequest req;
    req.kind = ShardRequest::Kind::kSumBatch;
    req.in = w.boxes.data();
    req.out = w.partial.data();
    req.count = static_cast<uint32_t>(w.boxes.size());
    req.ledger = active != nullptr ? &slots[k] : nullptr;
    req.done = &done;
    Submit(shard_ids[k], req);
  }
  done.Wait();
  // Gather: fold the per-shard partials into the per-box outputs.
  for (int s : shard_ids) {
    const ShardWork& w = work[static_cast<size_t>(s)];
    for (size_t i = 0; i < w.boxes.size(); ++i) {
      out[w.query[i]] += w.partial[i];
    }
  }
  if (active != nullptr) {
    for (const obs::CostLedger& l : slots) MergeLedger(*active, l);
  }
}

int64_t ShardedCube::TotalSum() const {
  shards_[0].stats.range_queries.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) ShardedObs::Get().range_queries.Increment();
  std::vector<int64_t> partials(static_cast<size_t>(num_shards_), 0);
  Broadcast(
      +[](DynamicDataCube& cube, void* p) {
        *static_cast<int64_t*>(p) = cube.TotalSum();
      },
      partials.data(), sizeof(int64_t));
  int64_t sum = 0;
  for (int64_t p : partials) sum += p;
  return sum;
}

int64_t ShardedCube::StorageCells() const {
  std::vector<int64_t> partials(static_cast<size_t>(num_shards_), 0);
  Broadcast(
      +[](DynamicDataCube& cube, void* p) {
        *static_cast<int64_t*>(p) = cube.StorageCells();
      },
      partials.data(), sizeof(int64_t));
  int64_t sum = 0;
  for (int64_t p : partials) sum += p;
  return sum;
}

Cell ShardedCube::DomainLo() const {
  std::vector<Cell> lows(static_cast<size_t>(num_shards_));
  Broadcast(
      +[](DynamicDataCube& cube, void* p) {
        *static_cast<Cell*>(p) = cube.DomainLo();
      },
      lows.data(), sizeof(Cell));
  Cell lo = lows[0];
  for (int s = 1; s < num_shards_; ++s) {
    lo = CellMin(lo, lows[static_cast<size_t>(s)]);
  }
  return lo;
}

Cell ShardedCube::DomainHi() const {
  std::vector<Cell> highs(static_cast<size_t>(num_shards_));
  Broadcast(
      +[](DynamicDataCube& cube, void* p) {
        *static_cast<Cell*>(p) = cube.DomainHi();
      },
      highs.data(), sizeof(Cell));
  Cell hi = highs[0];
  for (int s = 1; s < num_shards_; ++s) {
    hi = CellMax(hi, highs[static_cast<size_t>(s)]);
  }
  return hi;
}

void ShardedCube::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  // Quiesce protocol: park every owner on the gate, walk the (now
  // exclusively ours) cubes directly, open the gate, and wait for every
  // owner to move past it before the rendezvous state goes out of scope.
  // The mutex serializes concurrent barriers — two interleaved quiesces
  // could otherwise park disjoint owner subsets in opposite orders and
  // deadlock. Cold path by contract.
  std::lock_guard<std::mutex> quiesce(quiesce_mutex_);
  BarrierCtx ctx;
  internal::CompletionSlot arrivals;
  arrivals.Arm(static_cast<uint32_t>(num_shards_));
  ctx.released.Arm(static_cast<uint32_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    ShardRequest req;
    req.kind = ShardRequest::Kind::kBarrier;
    req.out = &ctx;
    req.done = &arrivals;
    Submit(s, req);
  }
  arrivals.Wait();
  // Every owner is parked past its last mutation (the arrival release pairs
  // with our acquire), so the walk sees a consistent global snapshot.
  for (int s = 0; s < num_shards_; ++s) {
    shards_[static_cast<size_t>(s)].cube->ForEachNonZero(fn);
  }
  ctx.gate.store(1, std::memory_order_release);
  ctx.gate.notify_all();
  ctx.released.Wait();
}

int64_t ShardedCube::TotalReRoots() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards_; ++s) {
    total += shards_[static_cast<size_t>(s)].reroots.load(
        std::memory_order_relaxed);
  }
  return total;
}

ConcurrentOpStats::Snapshot ShardedCube::stats() const {
  ConcurrentOpStats::Snapshot total{};
  for (int s = 0; s < num_shards_; ++s) {
    const ConcurrentOpStats::Snapshot part =
        shards_[static_cast<size_t>(s)].stats.Read();
    total.point_writes += part.point_writes;
    total.batches += part.batches;
    total.batched_ops += part.batched_ops;
    total.point_reads += part.point_reads;
    total.range_queries += part.range_queries;
    total.mailbox_messages += part.mailbox_messages;
    total.mailbox_stalls += part.mailbox_stalls;
    total.reroots += part.reroots;
  }
  return total;
}

}  // namespace ddc
