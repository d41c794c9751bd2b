// Per-operation cost ledger: the EXPLAIN ANALYZE accounting channel.
//
// A CostLedger is a plain struct of exact executed-cost counts for ONE
// logical operation (a statement, a batched query, a write batch). The
// executor installs a ledger on the calling thread with ScopedCostLedger.
// Its four value counts are the growth of the thread's CountBlock
// (common/op_counter.h) across the scope, and the registry's ddc.* counters
// sum the same blocks, so single-threaded the ledger equals the registry
// deltas for the same operation — the contract the EXPLAIN ANALYZE
// differential test enforces. The other layers (the corner decomposition in
// DynamicDataCube::RangeSumBatch, ShardedCube's fan-out) fold their counts
// in at the sites that also record them in the registry.
//
// Threading: the active ledger is a thread-local pointer. Work an operation
// fans out to OTHER threads (the pool workers that apply a multi-shard
// ShardedCube::ApplyBatch's groups) cannot fold into the caller's
// thread-local ledger directly; each pool task installs a private CostLedger
// slot with ScopedCostLedger around its shard work, and the caller merges
// the slots after the fan-out returns (counts add, tree_depth takes the
// max). Work run on the calling thread, including every sharded read, folds
// in directly. The decomposition shape (shard groups and sub-queries) is
// recorded on the calling thread. See DESIGN.md §14–15.
//
// Zero-cost contract: with -DDDC_OBS=OFF, ActiveLedger() is a constexpr
// nullptr and every `if (auto* l = obs::ActiveLedger())` site folds away;
// ScopedCostLedger becomes an empty object. With obs compiled in but no
// ledger installed, a site costs one thread-local load and a predictable
// branch. Installation reads the count block twice and allocates nothing
// (the ledger lives on the caller's stack).

#ifndef DDC_OBS_INTROSPECT_H_
#define DDC_OBS_INTROSPECT_H_

#include <cstdint>

#include "common/op_counter.h"

namespace ddc {
namespace obs {

// Exact executed costs of one operation. Counts mirror the registry
// counters of the same name family (ddc.values_read, ddc.nodes_visited,
// ddc.query.batch.corner_terms, ...); ns fields are filled by the executor.
// The OpCounters base is the count block's growth across the scope (primary
// and overlay trees with their face trees; same-thread work only).
struct CostLedger : OpCounters {
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

class ScopedCostLedger;

namespace internal {
inline ScopedCostLedger*& ActiveScopeSlot() {
  thread_local ScopedCostLedger* slot = nullptr;
  return slot;
}
}  // namespace internal

// RAII installer. Nests: the previous scope (usually none) is restored on
// destruction, and an analyzed operation inside an analyzed operation
// attributes to the innermost ledger only (the outer scope's start moves
// past what the inner one took). `ledger` may be null: the scope's counts
// then go to no ledger.
class ScopedCostLedger {
 public:
  explicit ScopedCostLedger(CostLedger* ledger)
      : ledger_(ledger),
        outer_(internal::ActiveScopeSlot()),
        start_(ThreadCounts()) {
    internal::ActiveScopeSlot() = this;
  }
  ~ScopedCostLedger() {
    const OpCounters spent = ThreadCounts() - start_;
    if (ledger_ != nullptr) *ledger_ += spent;
    if (outer_ != nullptr) outer_->start_ += spent;
    internal::ActiveScopeSlot() = outer_;
  }
  ScopedCostLedger(const ScopedCostLedger&) = delete;
  ScopedCostLedger& operator=(const ScopedCostLedger&) = delete;

  CostLedger* ledger() const { return ledger_; }

 private:
  CostLedger* ledger_;
  ScopedCostLedger* outer_;
  OpCounters start_;
};

// The ledger installed on this thread, or nullptr. Instrumentation sites
// use `if (auto* l = obs::ActiveLedger()) l->field += n;`.
inline CostLedger* ActiveLedger() {
  const ScopedCostLedger* scope = internal::ActiveScopeSlot();
  return scope != nullptr ? scope->ledger() : nullptr;
}

#endif  // DDC_OBS_DISABLED

}  // namespace obs
}  // namespace ddc

#endif  // DDC_OBS_INTROSPECT_H_
