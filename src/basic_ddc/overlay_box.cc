#include "basic_ddc/overlay_box.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/op_counter.h"
#include "common/shape.h"

namespace ddc {

namespace {

// Extents of face j over the d-1 transverse dimensions: (side-1) below j,
// side above j. Returns an empty vector when any extent would be zero.
std::vector<Coord> FaceExtents(int dims, int64_t side, int face) {
  std::vector<Coord> extents;
  extents.reserve(static_cast<size_t>(dims - 1));
  for (int i = 0; i < dims; ++i) {
    if (i == face) continue;
    const Coord extent = (i < face) ? side - 1 : side;
    if (extent == 0) return {};
    extents.push_back(extent);
  }
  return extents;
}

// Projects a d-dimensional box-local offset to face j's d-1 coordinates.
Cell ProjectToFace(const Cell& offset, int face) {
  Cell out;
  out.reserve(offset.size() - 1);
  for (size_t i = 0; i < offset.size(); ++i) {
    if (static_cast<int>(i) == face) continue;
    out.push_back(offset[i]);
  }
  return out;
}

}  // namespace

OverlayBoxArray::OverlayBoxArray(int dims, int64_t side)
    : dims_(dims), side_(side) {
  DDC_CHECK(dims_ >= 1);
  DDC_CHECK(side_ >= 1);
  storage_cells_ = IPow(side_, dims_) - IPow(side_ - 1, dims_);
  if (dims_ == 1) {
    // The only far-face cell is the subtotal.
    DDC_CHECK(storage_cells_ == 1);
    return;
  }
  faces_.reserve(static_cast<size_t>(dims_));
  face_present_.resize(static_cast<size_t>(dims_), false);
  int64_t laid_out = 0;
  for (int j = 0; j < dims_; ++j) {
    std::vector<Coord> extents = FaceExtents(dims_, side_, j);
    if (extents.empty()) {
      faces_.emplace_back();
      continue;
    }
    faces_.emplace_back(Shape(std::move(extents)));
    face_present_[static_cast<size_t>(j)] = true;
    laid_out += faces_.back().size();
  }
  DDC_CHECK(laid_out == storage_cells_);
}

int64_t OverlayBoxArray::ValueAt(const Cell& offset) const {
  DDC_DCHECK(static_cast<int>(offset.size()) == dims_);
  CountValuesRead(1);
  if (dims_ == 1) {
    DDC_DCHECK(offset[0] == side_ - 1);
    return scalar_;
  }
  int face = -1;
  for (int j = 0; j < dims_; ++j) {
    if (offset[static_cast<size_t>(j)] == side_ - 1) {
      face = j;
      break;
    }
  }
  DDC_CHECK(face >= 0);  // Caller must pass a far-face offset.
  DDC_DCHECK(face_present_[static_cast<size_t>(face)]);
  return faces_[static_cast<size_t>(face)].at(ProjectToFace(offset, face));
}

void OverlayBoxArray::SetValueAt(const Cell& offset, int64_t value) {
  DDC_DCHECK(static_cast<int>(offset.size()) == dims_);
  if (dims_ == 1) {
    DDC_DCHECK(offset[0] == side_ - 1);
    scalar_ = value;
    return;
  }
  int face = -1;
  for (int j = 0; j < dims_; ++j) {
    if (offset[static_cast<size_t>(j)] == side_ - 1) {
      face = j;
      break;
    }
  }
  DDC_CHECK(face >= 0);
  faces_[static_cast<size_t>(face)].at(ProjectToFace(offset, face)) = value;
}

int64_t OverlayBoxArray::Subtotal() const {
  return ValueAt(Cell(static_cast<size_t>(dims_), side_ - 1));
}

void OverlayBoxArray::ApplyDelta(const Cell& updated_offset, int64_t delta) {
  DDC_DCHECK(static_cast<int>(updated_offset.size()) == dims_);
  if (delta == 0) return;
  if (dims_ == 1) {
    scalar_ += delta;
    CountValuesWritten(1);
    return;
  }
  int64_t written = 0;
  // Every stored offset x with x >= updated_offset componentwise contains
  // the updated cell in its prefix region. Visit each face's rectangle of
  // such offsets.
  for (int j = 0; j < dims_; ++j) {
    if (!face_present_[static_cast<size_t>(j)]) continue;
    MdArray<int64_t>& face = faces_[static_cast<size_t>(j)];
    const Shape& shape = face.shape();
    // Transverse lower bounds: the updated offset's coordinates in every
    // dimension except j (x_j == side-1 >= updated_offset[j] always holds).
    Cell lo = ProjectToFace(updated_offset, j);
    bool empty = false;
    for (int t = 0; t < shape.dims(); ++t) {
      if (lo[static_cast<size_t>(t)] > shape.extent(t) - 1) {
        empty = true;  // The updated cell's offset is itself maxed in a
                       // dimension below j; those values live on an earlier
                       // face.
        break;
      }
    }
    if (empty) continue;
    Cell cursor = lo;
    while (true) {
      face.at(cursor) += delta;
      ++written;
      int dim = shape.dims() - 1;
      while (dim >= 0) {
        size_t ud = static_cast<size_t>(dim);
        if (++cursor[ud] < shape.extent(dim)) break;
        cursor[ud] = lo[ud];
        --dim;
      }
      if (dim < 0) break;
    }
  }
  CountValuesWritten(written);
}

}  // namespace ddc
