// FaceStore: one group of overlay-box row-sum values, stored so that both
// reading a cumulative row sum and absorbing a point update cost polylog
// time (Section 4.2, "Storing Overlay Box Values Recursively").
//
// For a d-dimensional overlay box of side k, face j is conceptually the
// (d-1)-dimensional array F_j over the transverse coordinates y (every
// dimension except j, each in [0, k)):
//
//   F_j[y] = SUM( A[anchor .. anchor + (y with coordinate j set to k-1)] )
//
// i.e. the box-local prefix sums with dimension j fully extended. F_j is
// exactly the prefix-sum array of the line-sum array
// G_j[y] = SUM over the dimension-j line of the box at transverse position y,
// which is the "concordance with array P" observation of Section 4.2. A
// FaceStore therefore holds G_j in a structure with polylog prefix queries
// and point updates:
//
//   * d-1 == 1: a B_c tree (Section 4.1) or, for ablation, a Fenwick tree;
//   * d-1 >= 2: a nested (d-1)-dimensional Dynamic Data Cube.
//
// Reading a row-sum value is PrefixSum(y); updating A[anchor + off] is
// Add(transverse(off), delta): the line sum through the updated cell changes
// by delta.
//
// Layout: a FaceStore is a small non-virtual tagged handle (three pointers,
// trivially destructible) so the d faces of an overlay box can sit inline
// in one arena array next to the box's subtotal. BcTree is final, so the
// common B_c-tree path binds its calls directly instead of dispatching
// through CumulativeStore1D. The pointed-to store lives in the same arena
// and dies with it. Keys are passed as bare coordinate arrays the caller
// treats as scratch: a nested face core rebases the key in place as it
// descends instead of copying it, so neither side allocates. One-
// dimensional faces (the faces of a 2-D box) take their single coordinate
// by value through AddLine / PrefixSumLine.

#ifndef DDC_DDC_FACE_STORE_H_
#define DDC_DDC_FACE_STORE_H_

#include <cstdint>
#include <memory>

#include "common/arena.h"
#include "common/cell.h"
#include "common/md_array.h"
#include "common/op_counter.h"
#include "ddc/ddc_options.h"

namespace ddc {

class BcTree;
class DdcCore;
class FenwickTree;

class FaceStore {
 public:
  // An empty handle; Init() before use. Default-constructible so arrays of
  // faces can be carved out of an arena in one allocation.
  FaceStore() = default;

  // Initializes the store for a face with `transverse_dims` (= d-1)
  // dimensions of extent `side`. All backing memory comes from `arena`
  // (not owned; must outlive the store). `counters` routes cost accounting
  // to the owning cube; may be null.
  void Init(Arena* arena, int transverse_dims, int64_t side,
            const DdcOptions& options, OpCounters* counters);

  // Convenience for standalone stores (tests): a fresh store plus the arena
  // backing it.
  struct Owned {
    std::unique_ptr<Arena> arena;
    FaceStore* store = nullptr;  // Lives in *arena.
    FaceStore* operator->() { return store; }
    const FaceStore* operator->() const { return store; }
  };
  static Owned Create(int transverse_dims, int64_t side,
                      const DdcOptions& options, OpCounters* counters);

  // Adds `delta` to the line sum at transverse position `y` (d-1 coords,
  // each in [0, side)). `y` is scratch: a nested face rebases it in place,
  // so its contents are unspecified on return.
  void Add(Coord* y, int64_t delta);

  // Returns F_j at `y`: the cumulative row sum over transverse prefix
  // [0 .. y]. Same scratch contract for `y` as Add.
  int64_t PrefixSum(Coord* y) const;

  // Add / PrefixSum for a one-dimensional face (d-1 == 1), keyed by its
  // single transverse coordinate.
  void AddLine(Coord y, int64_t delta);
  int64_t PrefixSumLine(Coord y) const;

  int64_t StorageCells() const;

  // Bulk-builds the store from the dense line-sum array G_j (shape: d-1
  // dimensions of extent `side`). The store must be empty. Used by the
  // bottom-up bulk loader.
  void BuildFromDense(const MdArray<int64_t>& line_sums);

 private:
  // Exactly one is set after Init: bc_ (1-D faces), fenwick_ (1-D ablation),
  // or nested_ (d-1 >= 2).
  BcTree* bc_ = nullptr;
  FenwickTree* fenwick_ = nullptr;
  DdcCore* nested_ = nullptr;
};

}  // namespace ddc

#endif  // DDC_DDC_FACE_STORE_H_
