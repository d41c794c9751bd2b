#include "rps/relative_prefix_sum_cube.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/op_counter.h"

namespace ddc {

RelativePrefixSumCube::RelativePrefixSumCube(Shape shape, int64_t block_side)
    : shape_(std::move(shape)), rp_(shape_) {
  const int d = shape_.dims();
  block_side_.resize(static_cast<size_t>(d));
  num_blocks_.resize(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    const int64_t n = shape_.extent(i);
    int64_t k = block_side;
    if (k <= 0) {
      k = static_cast<int64_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    }
    k = std::min(k, n);
    block_side_[static_cast<size_t>(i)] = k;
    num_blocks_[static_cast<size_t>(i)] = (n + k - 1) / k;
  }

  const uint32_t num_subsets = 1u << d;
  tables_.reserve(num_subsets - 1);
  for (uint32_t mask = 1; mask < num_subsets; ++mask) {
    std::vector<Coord> extents(static_cast<size_t>(d));
    for (int i = 0; i < d; ++i) {
      extents[static_cast<size_t>(i)] = (mask & (1u << i))
                                            ? num_blocks_[static_cast<size_t>(i)]
                                            : shape_.extent(i);
    }
    tables_.emplace_back(Shape(std::move(extents)));
  }
}

RelativePrefixSumCube RelativePrefixSumCube::FromArray(
    const MdArray<int64_t>& array, int64_t block_side) {
  RelativePrefixSumCube cube(array.shape(), block_side);
  const Shape& shape = array.shape();
  const int d = shape.dims();

  // Global prefix array P by the standard per-dimension sweep.
  MdArray<int64_t> p(shape);
  for (int64_t i = 0; i < array.size(); ++i) {
    p.at_linear(i) = array.at_linear(i);
  }
  for (int dim = 0; dim < d; ++dim) {
    Cell cell(static_cast<size_t>(d), 0);
    do {
      if (cell[static_cast<size_t>(dim)] == 0) continue;
      Cell prev = cell;
      --prev[static_cast<size_t>(dim)];
      p.at(cell) += p.at(prev);
    } while (shape.NextCell(&cell));
  }
  const Cell anchor = UniformCell(d, 0);
  auto region_sum = [&](const Box& box) {
    return RangeSumFromPrefix(box, anchor,
                              [&](const Cell& c) { return p.at(c); });
  };

  // RP: block-local prefixes.
  {
    Cell cell(static_cast<size_t>(d), 0);
    do {
      Box region{Cell(static_cast<size_t>(d)), cell};
      for (int i = 0; i < d; ++i) {
        region.lo[static_cast<size_t>(i)] =
            cube.BlockAnchor(i, cell[static_cast<size_t>(i)]);
      }
      cube.rp_.at(cell) = region_sum(region);
    } while (shape.NextCell(&cell));
  }

  // Border tables T_S.
  const uint32_t num_subsets = 1u << d;
  for (uint32_t mask = 1; mask < num_subsets; ++mask) {
    MdArray<int64_t>& table = cube.tables_[mask - 1];
    const Shape& tshape = table.shape();
    Cell index(static_cast<size_t>(d), 0);
    do {
      Box region{Cell(static_cast<size_t>(d)), Cell(static_cast<size_t>(d))};
      for (int i = 0; i < d; ++i) {
        size_t ui = static_cast<size_t>(i);
        if (mask & (1u << i)) {
          // Blocks 0..index_i complete (clipped to the domain).
          region.lo[ui] = 0;
          region.hi[ui] = std::min<Coord>(
              shape.extent(i) - 1,
              (index[ui] + 1) * cube.block_side_[ui] - 1);
        } else {
          region.lo[ui] = cube.BlockAnchor(i, index[ui]);
          region.hi[ui] = index[ui];
        }
      }
      table.at(index) = region_sum(region);
    } while (tshape.NextCell(&index));
  }
  return cube;
}

Cell RelativePrefixSumCube::DomainLo() const {
  return UniformCell(shape_.dims(), 0);
}

Cell RelativePrefixSumCube::DomainHi() const {
  Cell hi(static_cast<size_t>(shape_.dims()));
  for (int i = 0; i < shape_.dims(); ++i) {
    hi[static_cast<size_t>(i)] = shape_.extent(i) - 1;
  }
  return hi;
}

int64_t RelativePrefixSumCube::Get(const Cell& cell) const {
  return RangeSum(Box{cell, cell});
}

void RelativePrefixSumCube::Set(const Cell& cell, int64_t value) {
  Add(cell, value - Get(cell));
}

void RelativePrefixSumCube::Add(const Cell& cell, int64_t delta) {
  DDC_CHECK(shape_.Contains(cell));
  if (delta == 0) return;
  const int d = shape_.dims();
  int64_t written = 0;

  // 1. Block-local prefixes: every RP cell in the same block dominated by
  //    `cell` contains it.
  {
    Box region{cell, cell};
    for (int i = 0; i < d; ++i) {
      size_t ui = static_cast<size_t>(i);
      region.hi[ui] = std::min<Coord>(
          shape_.extent(i) - 1,
          BlockAnchor(i, cell[ui]) + block_side_[ui] - 1);
    }
    Cell cursor = region.lo;
    while (true) {
      rp_.at(cursor) += delta;
      ++written;
      int dim = d - 1;
      while (dim >= 0) {
        size_t ud = static_cast<size_t>(dim);
        if (++cursor[ud] <= region.hi[ud]) break;
        cursor[ud] = region.lo[ud];
        --dim;
      }
      if (dim < 0) break;
    }
  }

  // 2. Border tables: T_S[y] covers `cell` when, in each S dimension, y's
  //    block is at or after cell's block (complete-blocks region reaches
  //    past the cell)... more precisely strictly after is wrong: T_S[y]
  //    covers blocks 0..y_i completely, so it contains cell iff
  //    y_i >= block(cell_i); in each non-S dimension y must be in the same
  //    block with y_i >= cell_i.
  const uint32_t num_subsets = 1u << d;
  for (uint32_t mask = 1; mask < num_subsets; ++mask) {
    MdArray<int64_t>& table = tables_[mask - 1];
    Box region{Cell(static_cast<size_t>(d)), Cell(static_cast<size_t>(d))};
    bool empty = false;
    for (int i = 0; i < d; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (mask & (1u << i)) {
        region.lo[ui] = BlockOf(i, cell[ui]);
        region.hi[ui] = num_blocks_[ui] - 1;
      } else {
        region.lo[ui] = cell[ui];
        region.hi[ui] = std::min<Coord>(
            shape_.extent(i) - 1,
            BlockAnchor(i, cell[ui]) + block_side_[ui] - 1);
      }
      if (region.lo[ui] > region.hi[ui]) empty = true;
    }
    if (empty) continue;
    Cell cursor = region.lo;
    while (true) {
      table.at(cursor) += delta;
      ++written;
      int dim = d - 1;
      while (dim >= 0) {
        size_t ud = static_cast<size_t>(dim);
        if (++cursor[ud] <= region.hi[ud]) break;
        cursor[ud] = region.lo[ud];
        --dim;
      }
      if (dim < 0) break;
    }
  }
  CountValuesWritten(written);
}

int64_t RelativePrefixSumCube::PrefixSum(const Cell& cell) const {
  DDC_CHECK(shape_.Contains(cell));
  const int d = shape_.dims();
  // S = {}: the block-local relative prefix.
  int64_t sum = rp_.at(cell);
  int64_t read = 1;

  const uint32_t num_subsets = 1u << d;
  Cell index(static_cast<size_t>(d));
  for (uint32_t mask = 1; mask < num_subsets; ++mask) {
    bool zero_term = false;
    for (int i = 0; i < d; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (mask & (1u << i)) {
        const int64_t block = BlockOf(i, cell[ui]);
        if (block == 0) {
          zero_term = true;  // No complete blocks before the cell's block.
          break;
        }
        index[ui] = block - 1;
      } else {
        index[ui] = cell[ui];
      }
    }
    if (zero_term) continue;
    sum += tables_[mask - 1].at(index);
    ++read;
  }
  CountValuesRead(read);
  return sum;
}

int64_t RelativePrefixSumCube::StorageCells() const {
  int64_t total = rp_.size();
  for (const auto& table : tables_) total += table.size();
  return total;
}

}  // namespace ddc
