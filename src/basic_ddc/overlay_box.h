// OverlayBoxArray: one overlay box with its values stored directly in dense
// arrays — the Section 3 (Basic Dynamic Data Cube) representation.
//
// An overlay box of side k in d dimensions stores exactly
// k^d - (k-1)^d values (Section 3.1): the box-local prefix sums
// SUM(A[anchor .. anchor+offset]) for every offset on a "far face", i.e.
// offsets with offset[j] == k-1 in at least one dimension j. The cell with
// every coordinate maxed is the subtotal S; the remaining far-face cells are
// the cumulative row sums (Figure 7).
//
// Layout: the far faces are partitioned by their *first* maxed dimension.
// Face j holds the offsets with offset[j] == k-1 and offset[i] < k-1 for all
// i < j; it is a dense array over the other d-1 coordinates with extents
// (k-1) for i < j and k for i > j. The face sizes sum exactly to
// k^d - (k-1)^d, which is what StorageCells() reports and what the Table 2
// experiment verifies against the closed form.
//
// All coordinates in this API are box-local offsets in [0, k).

#ifndef DDC_BASIC_DDC_OVERLAY_BOX_H_
#define DDC_BASIC_DDC_OVERLAY_BOX_H_

#include <cstdint>
#include <vector>

#include "common/cell.h"
#include "common/md_array.h"

namespace ddc {

class OverlayBoxArray {
 public:
  OverlayBoxArray(int dims, int64_t side);

  OverlayBoxArray(const OverlayBoxArray&) = delete;
  OverlayBoxArray& operator=(const OverlayBoxArray&) = delete;

  int dims() const { return dims_; }
  int64_t side() const { return side_; }

  // The stored value at a far-face offset: SUM(A[anchor .. anchor+offset]).
  // `offset` must have offset[j] == side-1 for at least one j.
  int64_t ValueAt(const Cell& offset) const;

  // The subtotal S: sum of every cell of A covered by this box.
  int64_t Subtotal() const;

  // Records A[anchor + updated_offset] += delta by adjusting every stored
  // value whose region contains the updated cell — the cascading in-box
  // update whose cost drives the Section 3.2 analysis.
  void ApplyDelta(const Cell& updated_offset, int64_t delta);

  // Directly assigns the stored value at a far-face offset (bulk-build
  // path; no cascading).
  void SetValueAt(const Cell& offset, int64_t value);

  // Exactly side^d - (side-1)^d.
  int64_t StorageCells() const { return storage_cells_; }

 private:
  int dims_;
  int64_t side_;
  int64_t storage_cells_;
  // faces_[j] may be absent (empty MdArray) when its extent product is zero
  // (side == 1 keeps only face 0). For dims_ == 1 there are no transverse
  // coordinates; the single stored value lives in scalar_.
  std::vector<MdArray<int64_t>> faces_;
  std::vector<bool> face_present_;
  int64_t scalar_ = 0;  // dims_ == 1 only: the subtotal.
};

}  // namespace ddc

#endif  // DDC_BASIC_DDC_OVERLAY_BOX_H_
