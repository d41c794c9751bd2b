#include "basic_ddc/basic_ddc.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/op_counter.h"

namespace ddc {

BasicDdc::BasicDdc(int dims, int64_t side) : dims_(dims), side_(side) {
  DDC_CHECK(dims_ >= 1 && dims_ <= 20);
  DDC_CHECK(side_ >= 2 && IsPowerOfTwo(side_));
  num_levels_ = FloorLog2(side_);
  num_children_ = 1u << dims_;
}

BasicDdc::Node* BasicDdc::EnsureNode(std::unique_ptr<Node>* slot) {
  if (*slot == nullptr) {
    *slot = std::make_unique<Node>();
    (*slot)->boxes.resize(num_children_);
    (*slot)->children.resize(num_children_);
  }
  return slot->get();
}

OverlayBoxArray* BasicDdc::EnsureBox(Node* node, uint32_t child_mask,
                                     int64_t box_side) {
  std::unique_ptr<OverlayBoxArray>& slot = node->boxes[child_mask];
  if (slot == nullptr) {
    slot = std::make_unique<OverlayBoxArray>(dims_, box_side);
    storage_cells_ += slot->StorageCells();
  }
  return slot.get();
}

std::unique_ptr<BasicDdc> BasicDdc::FromArray(const MdArray<int64_t>& array) {
  const Shape& shape = array.shape();
  const int dims = shape.dims();
  const Coord side = shape.extent(0);
  for (int i = 1; i < dims; ++i) DDC_CHECK(shape.extent(i) == side);
  auto cube = std::make_unique<BasicDdc>(dims, side);

  // One prefix sweep, then every overlay value is an O(2^d) region sum.
  MdArray<int64_t> prefix(shape);
  for (int64_t i = 0; i < array.size(); ++i) {
    prefix.at_linear(i) = array.at_linear(i);
  }
  for (int dim = 0; dim < dims; ++dim) {
    Cell cell(static_cast<size_t>(dims), 0);
    do {
      if (cell[static_cast<size_t>(dim)] == 0) continue;
      Cell prev = cell;
      --prev[static_cast<size_t>(dim)];
      prefix.at(cell) += prefix.at(prev);
    } while (shape.NextCell(&cell));
  }

  cube->EnsureNode(&cube->root_);
  cube->BuildNodeFromPrefix(cube->root_.get(), side,
                            UniformCell(dims, 0), prefix);
  return cube;
}

void BasicDdc::BuildNodeFromPrefix(Node* node, int64_t node_side,
                                   const Cell& node_anchor,
                                   const MdArray<int64_t>& prefix) {
  const int64_t k = node_side / 2;
  const Cell anchor0 = UniformCell(dims_, 0);
  auto region_sum = [&](const Box& box) {
    return RangeSumFromPrefix(
        box, anchor0, [&](const Cell& c) { return prefix.at(c); });
  };
  const Shape box_shape = Shape::Cube(dims_, k);
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    Cell box_anchor = node_anchor;
    for (int i = 0; i < dims_; ++i) {
      if (mask & (1u << i)) box_anchor[static_cast<size_t>(i)] += k;
    }
    OverlayBoxArray* box = EnsureBox(node, mask, k);
    Cell offset(static_cast<size_t>(dims_), 0);
    do {
      bool far_face = false;
      for (Coord c : offset) far_face |= (c == k - 1);
      if (!far_face) continue;
      box->SetValueAt(offset,
                      region_sum(Box{box_anchor, CellAdd(box_anchor, offset)}));
    } while (box_shape.NextCell(&offset));
    if (k > 1) {
      Node* child = EnsureNode(&node->children[mask]);
      BuildNodeFromPrefix(child, k, box_anchor, prefix);
    }
  }
}

void BasicDdc::Set(const Cell& cell, int64_t value) {
  Add(cell, value - Get(cell));
}

void BasicDdc::Add(const Cell& cell, int64_t delta) {
  DDC_CHECK(Box{DomainLo(), DomainHi()}.Contains(cell));
  if (delta == 0) return;
  EnsureNode(&root_);
  AddRec(root_.get(), side_, UniformCell(dims_, 0), cell, delta);
}

void BasicDdc::AddRec(Node* node, int64_t node_side, const Cell& node_anchor,
                      const Cell& cell, int64_t delta) {
  CountNodeVisit();
  const int64_t k = node_side / 2;
  // Identify the (unique) overlay box covering the cell.
  uint32_t child_mask = 0;
  Cell offset(static_cast<size_t>(dims_));
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    Coord rel = cell[ui] - node_anchor[ui];
    if (rel >= k) {
      child_mask |= 1u << i;
      rel -= k;
    }
    offset[ui] = rel;
  }
  OverlayBoxArray* box = EnsureBox(node, child_mask, k);
  box->ApplyDelta(offset, delta);

  if (k > 1) {
    Cell child_anchor = node_anchor;
    for (int i = 0; i < dims_; ++i) {
      if (child_mask & (1u << i)) child_anchor[static_cast<size_t>(i)] += k;
    }
    Node* child = EnsureNode(&node->children[child_mask]);
    AddRec(child, k, child_anchor, cell, delta);
  }
}

int64_t BasicDdc::PrefixSum(const Cell& cell) const {
  DDC_CHECK(Box{DomainLo(), DomainHi()}.Contains(cell));
  if (root_ == nullptr) return 0;
  return PrefixSumRec(root_.get(), side_, UniformCell(dims_, 0), cell);
}

int64_t BasicDdc::PrefixSumRec(const Node* node, int64_t node_side,
                               const Cell& node_anchor,
                               const Cell& target) const {
  CountNodeVisit();
  const int64_t k = node_side / 2;
  int64_t sum = 0;
  Cell offset(static_cast<size_t>(dims_));
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    const OverlayBoxArray* box = node->boxes[mask].get();
    if (box == nullptr) continue;  // Unmaterialized region: all zero.
    // Classify the target against this box (Figure 10).
    bool before = false;   // Target precedes the box in some dimension.
    bool covered = true;   // Box covers the target in every dimension.
    for (int i = 0; i < dims_ && !before; ++i) {
      size_t ui = static_cast<size_t>(i);
      const Coord box_lo =
          node_anchor[ui] + ((mask & (1u << i)) ? k : 0);
      const Coord rel = target[ui] - box_lo;
      if (rel < 0) {
        before = true;
      } else if (rel >= k) {
        covered = false;
        offset[ui] = k - 1;
      } else {
        offset[ui] = rel;
      }
    }
    if (before) continue;  // Contributes nothing.
    if (covered) {
      if (k == 1) {
        // Leaf level: the box holds the original cell of A (its subtotal).
        sum += box->Subtotal();
      } else {
        const Node* child = node->children[mask].get();
        DDC_DCHECK(child != nullptr);
        Cell child_anchor = node_anchor;
        for (int i = 0; i < dims_; ++i) {
          if (mask & (1u << i)) child_anchor[static_cast<size_t>(i)] += k;
        }
        sum += PrefixSumRec(child, k, child_anchor, target);
      }
    } else {
      // Target intersects or passes the box: one row-sum (or subtotal)
      // value at the clamped offset.
      sum += box->ValueAt(offset);
    }
  }
  return sum;
}

int64_t BasicDdc::Get(const Cell& cell) const {
  DDC_CHECK(Box{DomainLo(), DomainHi()}.Contains(cell));
  if (root_ == nullptr) return 0;
  return GetRec(root_.get(), side_, UniformCell(dims_, 0), cell);
}

int64_t BasicDdc::GetRec(const Node* node, int64_t node_side,
                         const Cell& node_anchor, const Cell& cell) const {
  const int64_t k = node_side / 2;
  uint32_t child_mask = 0;
  for (int i = 0; i < dims_; ++i) {
    if (cell[static_cast<size_t>(i)] - node_anchor[static_cast<size_t>(i)] >=
        k) {
      child_mask |= 1u << i;
    }
  }
  const OverlayBoxArray* box = node->boxes[child_mask].get();
  if (box == nullptr) return 0;
  if (k == 1) return box->Subtotal();
  const Node* child = node->children[child_mask].get();
  DDC_DCHECK(child != nullptr);
  Cell child_anchor = node_anchor;
  for (int i = 0; i < dims_; ++i) {
    if (child_mask & (1u << i)) child_anchor[static_cast<size_t>(i)] += k;
  }
  return GetRec(child, k, child_anchor, cell);
}

}  // namespace ddc
