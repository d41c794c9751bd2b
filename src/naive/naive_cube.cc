#include "naive/naive_cube.h"

#include <utility>

#include "common/check.h"
#include "common/op_counter.h"

namespace ddc {

NaiveCube::NaiveCube(Shape shape) : array_(std::move(shape)) {}

Cell NaiveCube::DomainLo() const {
  return UniformCell(array_.dims(), 0);
}

Cell NaiveCube::DomainHi() const {
  Cell hi(static_cast<size_t>(array_.dims()));
  for (int i = 0; i < array_.dims(); ++i) {
    hi[static_cast<size_t>(i)] = array_.shape().extent(i) - 1;
  }
  return hi;
}

void NaiveCube::Set(const Cell& cell, int64_t value) {
  array_.at(cell) = value;
  CountValuesWritten(1);
}

void NaiveCube::Add(const Cell& cell, int64_t delta) {
  array_.at(cell) += delta;
  CountValuesWritten(1);
}

int64_t NaiveCube::Get(const Cell& cell) const {
  CountValuesRead(1);
  return array_.at(cell);
}

int64_t NaiveCube::PrefixSum(const Cell& cell) const {
  DDC_CHECK(array_.shape().Contains(cell));
  return RangeSum(Box{DomainLo(), cell});
}

int64_t NaiveCube::RangeSum(const Box& box) const {
  const Box clipped = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
  if (clipped.IsEmpty()) return 0;
  // Scan every cell of the region.
  CountValuesRead(clipped.NumCells());
  int64_t sum = 0;
  Cell cursor = clipped.lo;
  while (true) {
    sum += array_.at(cursor);
    // Row-major advance within the clipped box.
    int dim = dims() - 1;
    while (dim >= 0) {
      size_t ud = static_cast<size_t>(dim);
      if (++cursor[ud] <= clipped.hi[ud]) break;
      cursor[ud] = clipped.lo[ud];
      --dim;
    }
    if (dim < 0) break;
  }
  return sum;
}

}  // namespace ddc
