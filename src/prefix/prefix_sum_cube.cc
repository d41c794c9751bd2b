#include "prefix/prefix_sum_cube.h"

#include <utility>

#include "common/check.h"
#include "common/op_counter.h"

namespace ddc {

PrefixSumCube::PrefixSumCube(Shape shape) : p_(std::move(shape)) {}

PrefixSumCube PrefixSumCube::FromArray(const MdArray<int64_t>& array) {
  PrefixSumCube cube(array.shape());
  // Copy A, then turn it into P with one running-sum sweep per dimension:
  // after sweeping dimension j, each cell holds the sum over its prefix in
  // dimensions 0..j and its own index in the others.
  for (int64_t i = 0; i < array.size(); ++i) {
    cube.p_.at_linear(i) = array.at_linear(i);
  }
  const Shape& shape = array.shape();
  for (int dim = 0; dim < shape.dims(); ++dim) {
    Cell cell(static_cast<size_t>(shape.dims()), 0);
    do {
      if (cell[static_cast<size_t>(dim)] == 0) continue;
      Cell prev = cell;
      --prev[static_cast<size_t>(dim)];
      cube.p_.at(cell) += cube.p_.at(prev);
    } while (shape.NextCell(&cell));
  }
  return cube;
}

Cell PrefixSumCube::DomainLo() const { return UniformCell(p_.dims(), 0); }

Cell PrefixSumCube::DomainHi() const {
  Cell hi(static_cast<size_t>(p_.dims()));
  for (int i = 0; i < p_.dims(); ++i) {
    hi[static_cast<size_t>(i)] = p_.shape().extent(i) - 1;
  }
  return hi;
}

int64_t PrefixSumCube::Get(const Cell& cell) const {
  // A[c] = inclusion-exclusion over the 2^d corners of the single-cell box.
  return RangeSum(Box{cell, cell});
}

void PrefixSumCube::Set(const Cell& cell, int64_t value) {
  Add(cell, value - Get(cell));
}

void PrefixSumCube::Add(const Cell& cell, int64_t delta) {
  DDC_CHECK(p_.shape().Contains(cell));
  if (delta == 0) return;
  // Cascading update (Figure 5): every P cell dominated by `cell` contains
  // A[cell] as a component and must be adjusted.
  const Shape& shape = p_.shape();
  Cell cursor = cell;
  int64_t written = 0;
  while (true) {
    p_.at(cursor) += delta;
    ++written;
    int dim = shape.dims() - 1;
    while (dim >= 0) {
      size_t ud = static_cast<size_t>(dim);
      if (++cursor[ud] < shape.extent(dim)) break;
      cursor[ud] = cell[ud];
      --dim;
    }
    if (dim < 0) break;
  }
  CountValuesWritten(written);
}

int64_t PrefixSumCube::PrefixSum(const Cell& cell) const {
  DDC_CHECK(p_.shape().Contains(cell));
  CountValuesRead(1);
  return p_.at(cell);
}

}  // namespace ddc
