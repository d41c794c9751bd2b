// CumulativeStore1D: the contract of a one-dimensional cumulative-row-sum
// store as used inside Dynamic Data Cube overlay boxes (Section 4.1).
//
// The store holds `capacity` individual row sums, indexed 0..capacity-1, and
// answers cumulative queries: CumulativeSum(i) = value[0] + ... + value[i].
// The paper's implementation is the B_c tree; a Fenwick tree is provided as
// an ablation comparator with the same asymptotics. Both count into the
// calling thread's CountBlock (common/op_counter.h).

#ifndef DDC_BCTREE_CUMULATIVE_STORE_H_
#define DDC_BCTREE_CUMULATIVE_STORE_H_

#include <cstdint>

namespace ddc {

class CumulativeStore1D {
 public:
  virtual ~CumulativeStore1D() = default;

  // Adds `delta` to the individual value at `index`.
  virtual void Add(int64_t index, int64_t delta) = 0;

  // Returns value[0] + ... + value[index].
  virtual int64_t CumulativeSum(int64_t index) const = 0;

  // Returns the individual value at `index`.
  virtual int64_t Value(int64_t index) const = 0;

  // Sum of all values; O(1).
  virtual int64_t TotalSum() const = 0;

  virtual int64_t capacity() const = 0;

  // Currently allocated stored entries (lazily allocated structures report
  // only what exists).
  virtual int64_t StorageCells() const = 0;
};

}  // namespace ddc

#endif  // DDC_BCTREE_CUMULATIVE_STORE_H_
