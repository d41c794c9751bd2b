// Per-operation cost ledger: the EXPLAIN ANALYZE accounting channel.
//
// A CostLedger is a plain struct of exact executed-cost counts for ONE
// logical operation (a statement, a batched query, a write batch). The
// executor installs a ledger on the calling thread with ScopedCostLedger;
// the instrumented layers (DdcCore's value/node accounting, the corner
// decomposition in DynamicDataCube::RangeSumBatch, ShardedCube's fan-out)
// then fold their counts into it at exactly the same sites that mirror into
// the process-wide metrics registry. Single-threaded, that makes the ledger
// bit-identical to the registry deltas for the same operation — the
// contract the EXPLAIN ANALYZE differential test enforces.
//
// Threading: the active ledger is a thread-local pointer. Work an operation
// fans out to OTHER threads (ShardedCube's shard owner threads) cannot fold
// into the caller's thread-local ledger directly; the sharded layer ships a
// private CostLedger slot inside each mailbox request, each owner installs
// it with ScopedCostLedger around the shard work, and the caller merges the
// slots after gathering completions (counts add, tree_depth takes the max).
// The decomposition shape (shard groups and sub-queries) is recorded on the
// calling thread. See DESIGN.md §14–15.
//
// Zero-cost contract: with -DDDC_OBS=OFF, ActiveLedger() is a constexpr
// nullptr and every `if (auto* l = obs::ActiveLedger())` site folds away;
// ScopedCostLedger becomes an empty object. With obs compiled in but no
// ledger installed, a site costs one thread-local load and a predictable
// branch. Installation itself allocates nothing (the ledger lives on the
// caller's stack).

#ifndef DDC_OBS_INTROSPECT_H_
#define DDC_OBS_INTROSPECT_H_

#include <cstdint>

namespace ddc {
namespace obs {

// Exact executed costs of one operation. Counts mirror the registry
// counters of the same name family (ddc.values_read, ddc.nodes_visited,
// ddc.query.batch.corner_terms, ...); ns fields are filled by the executor.
struct CostLedger {
  // DdcCore accounting (primary + overlay trees, same-thread work only).
  int64_t nodes_visited = 0;
  int64_t values_read = 0;
  int64_t values_written = 0;
  int64_t face_lookups = 0;
  // Deepest descent geometry seen (levels of the tree at query time).
  int64_t tree_depth = 0;
  // Batched range-sum decomposition (DynamicDataCube::RangeSumBatch).
  int64_t corner_terms = 0;      // Signed corner terms before dedup.
  int64_t corners_deduped = 0;   // Terms collapsed by the dedup map.
  int64_t unique_corners = 0;    // Descents actually paid for.
  int64_t overlay_terms = 0;     // Overlay trees consulted (2^d or 0).
  int64_t overlay_journal_boxes = 0;  // Pending range-add journal entries
                                      // scanned (per unique corner).
  // ShardedCube fan-out shape (recorded on the calling thread).
  int64_t shard_groups = 0;      // Touched shards.
  int64_t shard_subqueries = 0;  // Slab sub-queries handed to shards.
  // Query-result cache consultation (CachedCube, src/cache). Probes count
  // canonicalized lookups issued; hits the probes answered without touching
  // the backing cube. probes - hits is exactly the misses the statement
  // paid a real descent for.
  int64_t cache_probes = 0;
  int64_t cache_hits = 0;
  // Executor stage wall times.
  int64_t parse_ns = 0;
  int64_t plan_ns = 0;
  int64_t exec_ns = 0;

  void Clear() { *this = CostLedger{}; }
};

#ifdef DDC_OBS_DISABLED

// Compile-time off: ledger sites are dead code, the scope is an empty shell.
constexpr CostLedger* ActiveLedger() { return nullptr; }

class ScopedCostLedger {
 public:
  explicit ScopedCostLedger(CostLedger*) {}
  ScopedCostLedger(const ScopedCostLedger&) = delete;
  ScopedCostLedger& operator=(const ScopedCostLedger&) = delete;
};

#else

namespace internal {
inline CostLedger*& ActiveLedgerSlot() {
  thread_local CostLedger* slot = nullptr;
  return slot;
}
}  // namespace internal

// The ledger installed on this thread, or nullptr. Instrumentation sites
// use `if (auto* l = obs::ActiveLedger()) l->field += n;`.
inline CostLedger* ActiveLedger() { return internal::ActiveLedgerSlot(); }

// RAII installer. Nests: the previous ledger (usually none) is restored on
// destruction, so an analyzed operation inside an analyzed operation
// attributes to the innermost ledger only.
class ScopedCostLedger {
 public:
  explicit ScopedCostLedger(CostLedger* ledger)
      : previous_(internal::ActiveLedgerSlot()) {
    internal::ActiveLedgerSlot() = ledger;
  }
  ~ScopedCostLedger() { internal::ActiveLedgerSlot() = previous_; }
  ScopedCostLedger(const ScopedCostLedger&) = delete;
  ScopedCostLedger& operator=(const ScopedCostLedger&) = delete;

 private:
  CostLedger* previous_;
};

#endif  // DDC_OBS_DISABLED

}  // namespace obs
}  // namespace ddc

#endif  // DDC_OBS_INTROSPECT_H_
