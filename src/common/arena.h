// Arena: a bump-pointer allocator backing one cube's tree structures.
//
// The Dynamic Data Cube materializes many small, long-lived objects — tree
// nodes, overlay boxes, face stores, B_c-tree nodes — whose lifetimes all
// end together, when the owning cube is destroyed or re-rooted. Allocating
// each of them individually (the seed's unique_ptr-per-node layout) spreads
// a single O(log^d n) descent across the heap; an arena packs objects in
// allocation order, which is close to descent order, so a query touches a
// handful of contiguous blocks instead of a pointer chase.
//
// Lifetime rules (see DESIGN.md §8):
//   * An arena dies with (or before) the structure it backs; nothing ever
//     frees an individual object.
//   * Growth and shrink re-rooting build the new core in a *fresh* arena and
//     drop the old one wholesale, so a re-rooted cube never carries dead
//     nodes from its previous life.
//   * Objects with non-trivial destructors register their destructor;
//     destructors run in reverse registration order when the arena dies.
//     Trivially destructible types skip registration entirely, which is the
//     case for every DDC structure by design: nodes, boxes, face arrays
//     (with their B_c faces inline), nested face cores and leaf slabs. Only
//     the Fenwick-tree ablation's faces register one.
//
// Not thread-safe: an arena belongs to one cube, and cubes require external
// synchronization for writes (the concurrent facades hold exclusive locks
// while allocating).

#ifndef DDC_COMMON_ARENA_H_
#define DDC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace ddc {

namespace arena_internal {

// Process-wide arena churn metrics. Growth/shrink re-rooting builds the new
// tree in a fresh arena and drops the old one wholesale, so the allocated /
// retired pair exposes exactly the block churn that re-rooting causes.
inline obs::Counter& BlocksAllocated() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("arena.blocks_allocated");
  return c;
}

inline obs::Counter& BlocksRetired() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("arena.blocks_retired");
  return c;
}

inline obs::Counter& BytesReserved() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("arena.bytes_reserved");
  return c;
}

}  // namespace arena_internal

class Arena {
 public:
  // Every block base is aligned to this, so Allocate() can honor any
  // power-of-two alignment up to it — the cache-line-sized node layouts
  // (BcTree, kernel descents) depend on 64-byte placement.
  static constexpr size_t kMaxAlign = 64;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // Reverse order: later objects may (in principle) reference earlier
    // ones; none of the registered destructors touch arena memory.
    for (auto it = cleanups_.rbegin(); it != cleanups_.rend(); ++it) {
      it->destroy(it->object);
    }
    if (obs::Enabled() && !blocks_.empty()) {
      arena_internal::BlocksRetired().Add(
          static_cast<int64_t>(blocks_.size()));
    }
  }

  // Raw aligned allocation. `align` must be a power of two <= kMaxAlign.
  // Alignment is real, not incidental: block bases are 64-byte aligned, so
  // an aligned offset within the block is an aligned address (the seed's
  // blocks were only new[]-aligned, which silently capped usable alignment
  // at 16 bytes).
  void* Allocate(size_t bytes, size_t align) {
    DDC_DCHECK(align > 0 && align <= kMaxAlign &&
               (align & (align - 1)) == 0);
    size_t offset = (cursor_ + align - 1) & ~(align - 1);
    if (offset + bytes > block_size_) {
      NewBlock(bytes, align);
      offset = (cursor_ + align - 1) & ~(align - 1);
    }
    cursor_ = offset + bytes;
    bytes_used_ = bytes_total_ - block_size_ + cursor_;
    return block_ + offset;
  }

  // Constructs a T in the arena. Registers T's destructor unless T is
  // trivially destructible; either way the object must never be deleted.
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    T* object = new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      cleanups_.push_back(
          {object, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return object;
  }

  // Allocates an array of `count` value-initialized Ts. T must be trivially
  // destructible (arrays of owning objects should be arrays of pointers to
  // individually Create()d objects instead).
  template <typename T>
  T* CreateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    T* array = static_cast<T*>(Allocate(sizeof(T) * count, alignof(T)));
    for (size_t i = 0; i < count; ++i) new (array + i) T();
    return array;
  }

  // Total bytes handed out (excluding block-rounding slack at block ends).
  size_t bytes_used() const { return bytes_used_; }
  // Total bytes reserved from the heap across all blocks.
  size_t bytes_reserved() const { return bytes_total_; }
  size_t num_blocks() const { return blocks_.size(); }
  // Destructors registered by Create() (non-trivially destructible objects).
  size_t num_cleanups() const { return cleanups_.size(); }

 private:
  // Blocks start small (one node-rich page) and double up to a cap, so tiny
  // nested structures cost one page while big cubes amortize block churn.
  static constexpr size_t kMinBlock = 4096;
  static constexpr size_t kMaxBlock = 256 * 1024;

  struct Cleanup {
    void* object;
    void (*destroy)(void*);
  };

  void NewBlock(size_t bytes, size_t align) {
    if (DDC_FAULTPOINT("arena.alloc.fail")) {
      // Injected allocation failure, raised before any arena state changes:
      // the cube that was mid-descent may hold a partially applied batch,
      // so the owner must discard it (durable state is unaffected — the WAL
      // already holds the record).
      fault::RaiseAllocFailure("arena.alloc.fail");
    }
    size_t want = next_block_size_;
    // Oversized single objects get their own block.
    if (bytes + align > want) want = bytes + align;
    // Over-allocate by kMaxAlign and round the base up, so every block base
    // is 64-byte aligned regardless of what new[] returned.
    blocks_.push_back(std::make_unique<char[]>(want + kMaxAlign));
    const uintptr_t raw =
        reinterpret_cast<uintptr_t>(blocks_.back().get());
    block_ = reinterpret_cast<char*>((raw + kMaxAlign - 1) &
                                     ~(uintptr_t{kMaxAlign} - 1));
    block_size_ = want;
    cursor_ = 0;
    bytes_total_ += want;
    if (next_block_size_ < kMaxBlock) next_block_size_ *= 2;
    if (obs::Enabled()) {
      arena_internal::BlocksAllocated().Increment();
      arena_internal::BytesReserved().Add(static_cast<int64_t>(want));
    }
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<Cleanup> cleanups_;
  char* block_ = nullptr;
  size_t block_size_ = 0;   // Capacity of the current block.
  size_t cursor_ = 0;       // Fill level of the current block.
  size_t next_block_size_ = kMinBlock;
  size_t bytes_used_ = 0;
  size_t bytes_total_ = 0;
};

}  // namespace ddc

#endif  // DDC_COMMON_ARENA_H_
