#include "ddc/ddc_core.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/kernels.h"
#include "common/shape.h"

namespace ddc {

namespace {

// Drops coordinate `skip_dim` of the `dims`-wide `offset`, writing the
// dims - 1 wide transverse position that keys a face store into `out`.
void TransverseInto(const Coord* offset, int dims, int skip_dim, Coord* out) {
  for (int i = 0, o = 0; i < dims; ++i) {
    if (i != skip_dim) out[o++] = offset[i];
  }
}

}  // namespace

// Every box of a d >= 3 cube larger than a leaf block holds d nested face
// cores, so the core header is the per-face fixed cost; keep it within two
// cache lines, and owning nothing, so a nested core registers no arena
// cleanup. A 2-D box holds its two B_c faces inline, and the smallest boxes
// of a d >= 3 cube point straight at their faces' leaf slabs.
static_assert(sizeof(DdcCore) <= 128);
static_assert(std::is_trivially_destructible_v<DdcCore>);
static_assert(std::is_trivially_destructible_v<BcFace>);
static_assert(sizeof(FaceStore) == 16);

DdcCore::DdcCore(int dims, int64_t side, const DdcOptions& options,
                 Arena* arena)
    : dims_(dims), options_(options), side_(side) {
  DDC_CHECK(dims_ >= 1 && dims_ <= kMaxDims);
  DDC_CHECK(side_ >= 2 && IsPowerOfTwo(side_));
  DDC_CHECK(options_.elide_levels >= 0 && options_.elide_levels < 62);
  DDC_CHECK(options_.bc_fanout >= 2 && options_.bc_fanout <= kMaxBcFanout);
  DDC_CHECK(arena != nullptr);
  num_children_ = 1u << dims_;
  min_box_side_ = std::min<int64_t>(side_, int64_t{1}
                                               << (options_.elide_levels + 1));
  leaf_shift_ = FloorLog2(min_box_side_);
  arena_ = arena;
}

DdcCore::Node* DdcCore::EnsureNode(Node** slot) {
  if (*slot == nullptr) {
    Node* node = arena_->Create<Node>();
    node->boxes = arena_->CreateArray<BoxData>(num_children_);
    *slot = node;
  }
  return *slot;
}

DdcCore::BoxData* DdcCore::EnsureBox(Node* node, uint32_t mask,
                                     const FaceStore::Env& env) {
  BoxData* box = &node->boxes[mask];
  if (!box->present) {
    box->present = true;
    if (dims_ > 1) {
      box->faces = arena_->CreateArray<FaceStore>(static_cast<size_t>(dims_));
      for (int j = 0; j < dims_; ++j) box->faces[j].Init(env, options_);
    }
  }
  return box;
}

int64_t* DdcCore::EnsureRaw(Node* node, uint32_t mask) {
  if (node->child_raw == nullptr) {
    node->child_raw = arena_->CreateArray<int64_t*>(num_children_);
  }
  int64_t*& slot = node->child_raw[mask];
  if (slot == nullptr) slot = NewLeaf();
  return slot;
}

void DdcCore::AddToFaces(BoxData* box, const FaceStore::Env& env,
                         const Coord* offset, int64_t delta) {
  // One point update per row-sum group: the dimension-j line sum through
  // the updated cell changes by delta (Section 4.2).
  if (dims_ == 1) return;  // 1-D boxes have no faces.
  if (dims_ == 2) {
    box->faces[0].AddLine(env, offset[1], delta);
    box->faces[1].AddLine(env, offset[0], delta);
    return;
  }
  Coord transverse[kMaxDims];
  for (int j = 0; j < dims_; ++j) {
    TransverseInto(offset, dims_, j, transverse);
    box->faces[j].Add(env, transverse, delta);
  }
}

int64_t DdcCore::ReadFace(const BoxData& box, const FaceStore::Env& env,
                          int j, const Coord* clamped) const {
  if (dims_ == 2) return box.faces[j].PrefixSumLine(env, clamped[1 - j]);
  Coord transverse[kMaxDims];
  TransverseInto(clamped, dims_, j, transverse);
  return box.faces[j].PrefixSum(env, transverse);
}

void DdcCore::Add(const Cell& cell, int64_t delta) {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  // The walk rebases its offset in place, so it runs on a stack copy.
  Coord offset[kMaxDims];
  std::copy_n(cell.begin(), dims_, offset);
  AddInPlace(offset, delta);
}

void DdcCore::AddInPlace(Coord* key, int64_t delta) {
  if (delta == 0) return;
  total_ += delta;
  if (side_ <= min_box_side_) {
    if (root_raw_ == nullptr) root_raw_ = NewLeaf();
    VisitNode(root_raw_);
    root_raw_[LeafIndex(key)] += delta;
    CountValuesWritten(1);
    return;
  }
  EnsureNode(&root_);
  if (kernels::UseScalar()) {
    AddScalarRef(root_, side_, key, delta);
    return;
  }
  AddRec(root_, side_, key, delta);
}

void DdcCore::AddRec(Node* node, int64_t node_side, Coord* offset,
                     int64_t delta) {
  while (true) {
    VisitNode(node);
    const int64_t k = node_side / 2;
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (offset[i] >= k) {
        mask |= 1u << i;
        offset[i] -= k;
      }
    }

    const FaceStore::Env env = FaceEnv(k);
    BoxData* box = EnsureBox(node, mask, env);
    box->subtotal += delta;
    CountValuesWritten(1);
    AddToFaces(box, env, offset, delta);

    if (k <= min_box_side_) {
      int64_t* raw = EnsureRaw(node, mask);
      VisitNode(raw);
      raw[LeafIndex(offset)] += delta;
      CountValuesWritten(1);
      return;
    }
    if (node->child_nodes == nullptr) {
      node->child_nodes = arena_->CreateArray<Node*>(num_children_);
    }
    node = EnsureNode(&node->child_nodes[mask]);
    node_side = k;
  }
}

// Seed shape of AddRec: a fresh offset Cell per level and a fresh transverse
// Cell per face touched.
void DdcCore::AddScalarRef(Node* node, int64_t node_side,
                           const Coord* offset_in_node, int64_t delta) {
  VisitNode(node);
  const int64_t k = node_side / 2;
  uint32_t mask = 0;
  Cell box_offset(offset_in_node, offset_in_node + dims_);
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    if (box_offset[ui] >= k) {
      mask |= 1u << i;
      box_offset[ui] -= k;
    }
  }
  const FaceStore::Env env = FaceEnv(k);
  BoxData* box = EnsureBox(node, mask, env);
  box->subtotal += delta;
  CountValuesWritten(1);
  for (int j = 0; j < dims_ && dims_ > 1; ++j) {
    Cell transverse(static_cast<size_t>(dims_ - 1));
    TransverseInto(box_offset.data(), dims_, j, transverse.data());
    box->faces[j].Add(env, transverse.data(), delta);
  }
  if (k > min_box_side_) {
    if (node->child_nodes == nullptr) {
      node->child_nodes = arena_->CreateArray<Node*>(num_children_);
    }
    AddScalarRef(EnsureNode(&node->child_nodes[mask]), k, box_offset.data(),
                 delta);
  } else {
    int64_t* raw = EnsureRaw(node, mask);
    VisitNode(raw);
    raw[LeafIndex(box_offset.data())] += delta;
    CountValuesWritten(1);
  }
}

std::span<const DdcCore::TreeSlot> DdcCore::TreeOrder(
    std::span<const Cell> cells) const {
  // In arrival order a cold AddBatch would lay its new nodes out at random
  // in the arena, and a PrefixSumBatch would re-fetch the top nodes its
  // neighbours just left (DESIGN.md §8, §10). Neither caller is re-entered
  // while it walks the result: Add and PrefixSum reach nested face cores
  // through AddInPlace / PrefixSumInPlace, never through a batch entry
  // point, so one pair of buffers per thread serves both callers and every
  // cube, and parallel readers (ShardedCube) each sort on their own.
  thread_local std::vector<TreeSlot> order;
  thread_local std::vector<TreeSlot> spare;
  const int height = FloorLog2(side_);
  const int levels = std::min(height, 64 / dims_);
  order.resize(cells.size());
  for (size_t q = 0; q < cells.size(); ++q) {
    DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
    order[q] = {TreeOrderKey(cells[q].data(), dims_, height, levels), q};
  }
  // LSD radix sort, one byte of the key per pass: stable, so equal keys
  // keep their batch order, and free of the branch misses a comparison
  // sort takes on keys this random.
  spare.resize(order.size());
  for (int shift = 0; shift < levels * dims_; shift += 8) {
    size_t begin[257] = {};
    for (const TreeSlot& t : order) ++begin[((t.key >> shift) & 0xff) + 1];
    for (int b = 0; b < 256; ++b) begin[b + 1] += begin[b];
    for (const TreeSlot& t : order) {
      spare[begin[(t.key >> shift) & 0xff]++] = t;
    }
    order.swap(spare);
  }
  return order;
}

void DdcCore::AddBatch(std::span<const Cell> cells,
                       std::span<const int64_t> deltas) {
  DDC_CHECK(cells.size() == deltas.size());
  for (const TreeSlot& t : TreeOrder(cells)) {
    Add(cells[t.index], deltas[t.index]);
  }
}

void DdcCore::BuildFromArray(const MdArray<int64_t>& array) {
  DDC_CHECK(total_ == 0 && root_ == nullptr && root_raw_ == nullptr);
  DDC_CHECK(array.shape() == Shape::Cube(dims_, side_));
  if (side_ <= min_box_side_) {
    // The root leaf has the array's extents and row-major order.
    root_raw_ = LeafFromArray(arena_, array);
    total_ = kernels::Sum(array.data(), static_cast<size_t>(array.size()));
    return;
  }
  EnsureNode(&root_);
  total_ = BuildNodeFromArray(root_, side_, UniformCell(dims_, 0), array);
}

int64_t DdcCore::BuildNodeFromArray(Node* node, int64_t node_side,
                                    const Cell& anchor,
                                    const MdArray<int64_t>& array) {
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  int64_t total = 0;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    Cell box_anchor = anchor;
    for (int i = 0; i < dims_; ++i) {
      if (mask & (1u << i)) box_anchor[static_cast<size_t>(i)] += k;
    }

    // One scan of the box region: subtotal, occupancy, and (for d > 1) the
    // d line-sum arrays G_j that seed the face stores.
    int64_t box_total = 0;
    bool any_nonzero = false;
    std::vector<MdArray<int64_t>> line_sums;
    if (dims_ > 1) {
      line_sums.reserve(static_cast<size_t>(dims_));
      for (int j = 0; j < dims_; ++j) {
        line_sums.emplace_back(Shape::Cube(dims_ - 1, k));
      }
    }
    const Shape box_shape = Shape::Cube(dims_, k);
    Cell offset(static_cast<size_t>(dims_), 0);
    Cell transverse(static_cast<size_t>(dims_ > 1 ? dims_ - 1 : 0));
    do {
      const int64_t v = array.at(CellAdd(box_anchor, offset));
      if (v == 0) continue;
      any_nonzero = true;
      box_total += v;
      for (int j = 0; j < dims_ && dims_ > 1; ++j) {
        TransverseInto(offset.data(), dims_, j, transverse.data());
        line_sums[static_cast<size_t>(j)].at(transverse) += v;
      }
    } while (box_shape.NextCell(&offset));
    total += box_total;
    if (!any_nonzero) continue;

    BoxData* box = EnsureBox(node, mask, env);
    box->subtotal = box_total;
    CountValuesWritten(1);
    for (int j = 0; j < dims_ && dims_ > 1; ++j) {
      box->faces[j].BuildFromDense(env, line_sums[static_cast<size_t>(j)]);
    }

    if (k > min_box_side_) {
      if (node->child_nodes == nullptr) {
        node->child_nodes = arena_->CreateArray<Node*>(num_children_);
      }
      Node* child = EnsureNode(&node->child_nodes[mask]);
      const int64_t child_total =
          BuildNodeFromArray(child, k, box_anchor, array);
      DDC_CHECK(child_total == box_total);
    } else {
      // NextCell walks the box in row-major order: the leaf's own layout.
      int64_t* raw = EnsureRaw(node, mask);
      Cell cursor(static_cast<size_t>(dims_), 0);
      int64_t index = 0;
      do {
        raw[index++] = array.at(CellAdd(box_anchor, cursor));
      } while (box_shape.NextCell(&cursor));
      CountValuesWritten(index);
    }
  }
  return total;
}

int64_t DdcCore::PrefixSum(const Cell& cell) const {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  // The walk rebases its offset in place, so it runs on a stack copy.
  Coord offset[kMaxDims];
  std::copy_n(cell.begin(), dims_, offset);
  return PrefixSumInPlace(offset);
}

int64_t DdcCore::PrefixSumInPlace(Coord* key) const {
  if (root_raw_ != nullptr) return RawPrefix(root_raw_, key);
  if (root_ == nullptr) return 0;
  if (kernels::UseScalar()) return PrefixSumScalarRef(root_, side_, key);
  return PrefixSumRec(root_, side_, key);
}

int64_t DdcCore::PrefixSumRec(const Node* node, int64_t node_side,
                              Coord* offset) const {
  Coord clamped[kMaxDims];
  int64_t sum = 0;
  while (true) {
    VisitNode(node);
    const int64_t k = node_side / 2;
    const FaceStore::Env env = FaceEnv(k);
    // The child containing the target: the one box the Figure 10 walk
    // classifies as "covered". It is descended after the other boxes.
    uint32_t home_mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (offset[i] >= k) home_mask |= 1u << i;
    }
    for (uint32_t mask = 0; mask < num_children_; ++mask) {
      if (mask == home_mask || !node->boxes[mask].present) continue;
      // Classify the target against this box (Figure 10): before the box in
      // some dimension -> no contribution; completely after -> subtotal;
      // otherwise one row-sum value.
      bool before = false;
      int first_beyond = -1;
      for (int i = 0; i < dims_; ++i) {
        const Coord rel = offset[i] - ((mask & (1u << i)) ? k : 0);
        if (rel < 0) {
          before = true;
          break;
        }
        if (rel >= k) {
          clamped[i] = k - 1;
          if (first_beyond < 0) first_beyond = i;
        } else {
          clamped[i] = rel;
        }
      }
      if (before) continue;
      DDC_DCHECK(first_beyond >= 0);  // mask != home_mask => not covered.
      // When the clamped offset is the all-maxed corner the needed stored
      // value is the subtotal S itself; serve it from the O(1) cache (this
      // subsumes the paper's "target completely after the box" case).
      bool all_maxed = true;
      for (int i = 0; i < dims_; ++i) {
        if (clamped[i] != k - 1) {
          all_maxed = false;
          break;
        }
      }
      if (all_maxed || dims_ == 1) {
        sum += node->boxes[mask].subtotal;
        CountValuesRead(1);
      } else {
        // The needed row-sum value has coordinate first_beyond maxed; read
        // it from that face as a (d-1)-dimensional prefix query.
        CountFaceLookup();
        sum += ReadFace(node->boxes[mask], env, first_beyond, clamped);
      }
    }

    if (!node->boxes[home_mask].present) return sum;  // All-zero region.
    for (int i = 0; i < dims_; ++i) {
      if (home_mask & (1u << i)) offset[i] -= k;
    }
    if (k <= min_box_side_) {
      // Raw leaf block: sum the covered prefix of A cells directly (the
      // Section 4.4 compensation for the elided levels).
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[home_mask] : nullptr;
      DDC_DCHECK(raw != nullptr);
      return sum + RawPrefix(raw, offset);
    }
    node = node->child_nodes != nullptr ? node->child_nodes[home_mask]
                                        : nullptr;
    DDC_DCHECK(node != nullptr);
    node_side = k;
  }
}

// Seed shape of PrefixSumRec: recursive, a fresh clamped Cell per node and a
// fresh transverse Cell per face lookup.
int64_t DdcCore::PrefixSumScalarRef(const Node* node, int64_t node_side,
                                    const Coord* offset_in_node) const {
  VisitNode(node);
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  int64_t sum = 0;
  Cell clamped(static_cast<size_t>(dims_));
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    if (!node->boxes[mask].present) continue;
    bool before = false;
    bool covered = true;
    int first_beyond = -1;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      const Coord rel = offset_in_node[ui] - ((mask & (1u << i)) ? k : 0);
      if (rel < 0) {
        before = true;
        break;
      }
      if (rel >= k) {
        covered = false;
        clamped[ui] = k - 1;
        if (first_beyond < 0) first_beyond = i;
      } else {
        clamped[ui] = rel;
      }
    }
    if (before) continue;
    if (covered) {
      if (k <= min_box_side_) {
        sum += RawPrefix(node->child_raw[mask], clamped.data());
      } else {
        sum += PrefixSumScalarRef(node->child_nodes[mask], k, clamped.data());
      }
      continue;
    }
    bool all_maxed = true;
    for (int i = 0; i < dims_; ++i) {
      if (clamped[static_cast<size_t>(i)] != k - 1) {
        all_maxed = false;
        break;
      }
    }
    if (all_maxed || dims_ == 1) {
      sum += node->boxes[mask].subtotal;
      CountValuesRead(1);
    } else {
      CountFaceLookup();
      Cell transverse(static_cast<size_t>(dims_ - 1));
      TransverseInto(clamped.data(), dims_, first_beyond, transverse.data());
      sum += node->boxes[mask].faces[first_beyond].PrefixSum(
          env, transverse.data());
    }
  }
  return sum;
}

void DdcCore::PrefixSumBatch(std::span<const Cell> cells,
                             std::span<int64_t> out) const {
  DDC_CHECK(cells.size() == out.size());
  for (const TreeSlot& t : TreeOrder(cells)) {
    out[t.index] = PrefixSum(cells[t.index]);
  }
}

int64_t* DdcCore::LeafFromArray(Arena* arena, const MdArray<int64_t>& array) {
  const int64_t* values = array.data();
  const int64_t* end = values + array.size();
  if (std::all_of(values, end, [](int64_t v) { return v == 0; })) {
    return nullptr;
  }
  auto* raw = arena->CreateArray<int64_t>(static_cast<size_t>(array.size()));
  std::copy(values, end, raw);
  return raw;
}

int64_t DdcCore::RawPrefix(const int64_t* raw, int dims, int shift,
                           const Coord* offset,
                           const NodeVisitListener* listener) {
  if (kernels::UseScalar()) {
    return RawPrefixScalarRef(raw, dims, shift, offset, listener);
  }
  // A leaf block is one secondary-storage unit.
  VisitNode(listener, raw);
  // Row-major leaf blocks keep the innermost dimension contiguous, so the
  // Section 4.4 dominance sum is an odometer over the outer dimensions with
  // one vectorized block sum per inner run. Counter semantics match the
  // scalar reference: one node, one read per cell summed.
  const int inner = dims - 1;
  const size_t run = static_cast<size_t>(offset[inner]) + 1;
  int64_t sum = 0;
  int64_t reads = 0;
  Coord cursor[kMaxDims] = {};
  while (true) {
    sum += kernels::Sum(raw + LeafIndex(cursor, dims, shift), run);
    reads += static_cast<int64_t>(run);
    int dim = dims - 2;
    while (dim >= 0) {
      if (++cursor[dim] <= offset[dim]) break;
      cursor[dim] = 0;
      --dim;
    }
    if (dim < 0) break;
  }
  CountValuesRead(reads);
  return sum;
}

int64_t DdcCore::RawPrefixScalarRef(const int64_t* raw, int dims, int shift,
                                    const Coord* offset,
                                    const NodeVisitListener* listener) {
  // A leaf block is one secondary-storage unit.
  VisitNode(listener, raw);
  int64_t sum = 0;
  Cell cursor(static_cast<size_t>(dims), 0);
  int64_t reads = 0;
  while (true) {
    sum += raw[LeafIndex(cursor.data(), dims, shift)];
    ++reads;
    int dim = dims - 1;
    while (dim >= 0) {
      size_t ud = static_cast<size_t>(dim);
      if (++cursor[ud] <= offset[ud]) break;
      cursor[ud] = 0;
      --dim;
    }
    if (dim < 0) break;
  }
  CountValuesRead(reads);
  return sum;
}

int64_t DdcCore::Get(const Cell& cell) const {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  if (root_raw_ != nullptr) {
    CountValuesRead(1);
    return root_raw_[LeafIndex(cell.data())];
  }
  const Node* node = root_;
  int64_t node_side = side_;
  Coord offset[kMaxDims];
  std::copy_n(cell.begin(), dims_, offset);
  while (node != nullptr) {
    const int64_t k = node_side / 2;
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (offset[i] >= k) {
        mask |= 1u << i;
        offset[i] -= k;
      }
    }
    if (!node->boxes[mask].present) return 0;
    if (k <= min_box_side_) {
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
      if (raw == nullptr) return 0;
      CountValuesRead(1);
      return raw[LeafIndex(offset)];
    }
    node = node->child_nodes != nullptr ? node->child_nodes[mask] : nullptr;
    node_side = k;
  }
  return 0;
}

int64_t DdcCore::StorageCells() const {
  if (root_raw_ != nullptr) return LeafCells();
  if (root_ == nullptr) return 0;
  return NodeStorage(root_, side_);
}

int64_t DdcCore::NodeStorage(const Node* node, int64_t node_side) const {
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  int64_t total = 0;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    const BoxData& box = node->boxes[mask];
    if (!box.present) continue;
    total += 1;  // Subtotal.
    for (int j = 0; j < dims_ && dims_ > 1; ++j) {
      total += box.faces[j].StorageCells(env);
    }
    if (k <= min_box_side_) {
      if (node->child_raw != nullptr && node->child_raw[mask] != nullptr) {
        total += LeafCells();
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      total += NodeStorage(node->child_nodes[mask], k);
    }
  }
  return total;
}

DdcStats DdcCore::Stats() const {
  DdcStats stats;
  stats.arena_bytes_used = static_cast<int64_t>(arena_->bytes_used());
  stats.arena_bytes_reserved = static_cast<int64_t>(arena_->bytes_reserved());
  if (root_raw_ != nullptr) {
    LeafStats(root_raw_, &stats);
    return stats;
  }
  if (root_ == nullptr) return stats;
  NodeStats(root_, side_, &stats);
  return stats;
}

void DdcCore::LeafStats(const int64_t* raw, DdcStats* stats) const {
  ++stats->raw_blocks;
  stats->raw_cells += LeafCells();
  stats->nonzero_cells += std::count_if(
      raw, raw + LeafCells(), [](int64_t v) { return v != 0; });
}

void DdcCore::NodeStats(const Node* node, int64_t node_side,
                        DdcStats* stats) const {
  ++stats->nodes;
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    const BoxData& box = node->boxes[mask];
    if (!box.present) continue;
    ++stats->boxes;
    for (int j = 0; j < dims_ && dims_ > 1; ++j) {
      ++stats->face_stores;
      box.faces[j].CountFaces(env, stats);
    }
    if (k <= min_box_side_) {
      if (node->child_raw != nullptr && node->child_raw[mask] != nullptr) {
        LeafStats(node->child_raw[mask], stats);
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      NodeStats(node->child_nodes[mask], k, stats);
    }
  }
}

void DdcCore::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  if (root_raw_ != nullptr) {
    LeafForEachNonZero(root_raw_, UniformCell(dims_, 0), fn);
    return;
  }
  if (root_ == nullptr) return;
  NodeForEachNonZero(root_, side_, UniformCell(dims_, 0), fn);
}

void DdcCore::LeafForEachNonZero(
    const int64_t* raw, const Cell& anchor,
    const std::function<void(const Cell&, int64_t)>& fn) const {
  // `cell` walks the block in row-major order, in step with the slab.
  Cell cell = anchor;
  for (int64_t index = 0, n = LeafCells(); index < n; ++index) {
    if (raw[index] != 0) fn(cell, raw[index]);
    for (size_t i = cell.size(); i-- > 0;) {
      if (++cell[i] < anchor[i] + min_box_side_) break;
      cell[i] = anchor[i];
    }
  }
}

void DdcCore::NodeForEachNonZero(
    const Node* node, int64_t node_side, const Cell& node_anchor,
    const std::function<void(const Cell&, int64_t)>& fn) const {
  const int64_t k = node_side / 2;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    if (!node->boxes[mask].present) continue;
    Cell box_anchor = node_anchor;
    for (int i = 0; i < dims_; ++i) {
      if (mask & (1u << i)) box_anchor[static_cast<size_t>(i)] += k;
    }
    if (k <= min_box_side_) {
      if (node->child_raw != nullptr && node->child_raw[mask] != nullptr) {
        LeafForEachNonZero(node->child_raw[mask], box_anchor, fn);
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      NodeForEachNonZero(node->child_nodes[mask], k, box_anchor, fn);
    }
  }
}

}  // namespace ddc
