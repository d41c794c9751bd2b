// CubeLifecycle: one subscription point for structural cube events.
//
// A Dynamic Data Cube re-roots — rebuilds its tree into a fresh arena —
// when it grows past its domain or shrinks to fit. Before this hub existed
// each observer (sharded shard accounting, WAL checkpoint scheduling, obs
// counters) wired its own bespoke callback into the cube. CubeLifecycle
// replaces those with a single multi-subscriber hook the owning cube fires
// after every re-root.
//
// Threading: the hub itself is NOT synchronized. Subscribe/Unsubscribe and
// Notify must be serialized by the owner — in practice all three happen on
// whatever thread exclusively mutates the cube (for ShardedCube and the
// other lock-guarded cubes, the mutating thread under the shard's or the
// cube's write lock). Callbacks run inline on
// that thread and must not call back into the cube that is mid-re-root.

#ifndef DDC_COMMON_CUBE_LIFECYCLE_H_
#define DDC_COMMON_CUBE_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace ddc {

// Why a cube rebuilt its tree.
enum class ReRootReason {
  kGrowth,  // EnsureContains doubled the domain to cover a new cell.
  kShrink,  // ShrinkToFit re-rooted into a tight (or empty) domain.
};

// One re-root, described by the side lengths before and after. The old
// tree's arena is retired wholesale once subscribers have been notified.
struct ReRootEvent {
  ReRootReason reason;
  int64_t old_side;
  int64_t new_side;
};

class CubeLifecycle {
 public:
  using Callback = std::function<void(const ReRootEvent&)>;

  // Registers `cb` and returns a token for Unsubscribe. Tokens are never
  // reused within one hub.
  uint64_t Subscribe(Callback cb) {
    const uint64_t token = next_token_++;
    subscribers_.push_back({token, std::move(cb)});
    return token;
  }

  // Removes the subscription `token`; ignores unknown tokens.
  void Unsubscribe(uint64_t token) {
    for (size_t i = 0; i < subscribers_.size(); ++i) {
      if (subscribers_[i].token == token) {
        subscribers_.erase(subscribers_.begin() +
                           static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }

  // Invokes every subscriber in subscription order.
  void Notify(const ReRootEvent& event) const {
    for (const Subscriber& s : subscribers_) s.callback(event);
  }

  bool empty() const { return subscribers_.empty(); }

 private:
  struct Subscriber {
    uint64_t token;
    Callback callback;
  };
  std::vector<Subscriber> subscribers_;
  uint64_t next_token_ = 1;
};

}  // namespace ddc

#endif  // DDC_COMMON_CUBE_LIFECYCLE_H_
