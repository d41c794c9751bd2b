#include "ddc/ddc_core.h"

#include <algorithm>
#include <type_traits>
#include <utility>

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

// Counting-sorts `items` (each carrying a `home` child mask) so every
// child's items form one contiguous run, using the caller's reusable
// scratch buffers. Shared by the batched query and batched update descents.
template <typename Item>
void CountingSortByHome(std::span<Item> items, std::vector<Item>& sorted,
                        std::vector<size_t>& begin,
                        std::vector<size_t>& cursor, uint32_t num_children) {
  std::fill(begin.begin(), begin.end(), size_t{0});
  for (const Item& item : items) ++begin[item.home + 1];
  for (uint32_t m = 0; m < num_children; ++m) begin[m + 1] += begin[m];
  sorted.resize(items.size());
  std::copy(begin.begin(), begin.end() - 1, cursor.begin());
  for (size_t q = 0; q < items.size(); ++q) {
    sorted[cursor[items[q].home]++] = std::move(items[q]);
  }
  std::move(sorted.begin(), sorted.end(), items.begin());
}

}  // namespace

// Thread-local scratch for the const batched-query descent: capacity
// persists across PrefixSumBatch calls (and across the cubes one thread
// serves), so steady-state batches run allocation-free. `busy` falls back
// to a fresh local scratch on reentrancy instead of corrupting a walk.
struct DdcCore::BatchTls {
  BatchScratch scratch;
  std::vector<BatchItem> items;
  bool busy = false;
};

DdcCore::BatchTls& DdcCore::GetBatchTls() {
  thread_local BatchTls tls;
  return tls;
}

// Every box of a d >= 3 cube larger than a leaf block holds d nested face
// cores, so the core header is the per-face fixed cost; keep it within two
// cache lines, and owning nothing, so a nested core registers no arena
// cleanup. A 2-D box holds its two B_c faces inline, and the smallest boxes
// of a d >= 3 cube point straight at their faces' leaf slabs.
static_assert(sizeof(DdcCore) <= 128);
static_assert(std::is_trivially_destructible_v<DdcCore>);
static_assert(std::is_trivially_destructible_v<BcFace>);
static_assert(sizeof(FaceStore) == 16);

size_t DdcCore::WriteScratch::bytes() const {
  return items.capacity() * sizeof(UpdateItem) +
         sorted.capacity() * sizeof(UpdateItem) +
         begin.capacity() * sizeof(size_t) +
         cursor.capacity() * sizeof(size_t) +
         deltas.capacity() * sizeof(int64_t);
}

obs::Counter& DdcCore::ObsValuesRead() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.values_read");
  return c;
}

obs::Counter& DdcCore::ObsValuesWritten() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.values_written");
  return c;
}

obs::Counter& DdcCore::ObsNodesVisited() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.nodes_visited");
  return c;
}

obs::Counter& DdcCore::ObsFaceLookups() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.face_lookups");
  return c;
}

DdcCore::DdcCore(int dims, int64_t side, const DdcOptions& options,
                 OpCounters* counters, Arena* arena)
    : dims_(dims), options_(options), side_(side), counters_(counters) {
  DDC_CHECK(dims_ >= 1 && dims_ <= kMaxDims);
  DDC_CHECK(side_ >= 2 && IsPowerOfTwo(side_));
  DDC_CHECK(options_.elide_levels >= 0 && options_.elide_levels < 62);
  DDC_CHECK(options_.use_fenwick || options_.bc_fanout >= 2);
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
    CountNode(root_raw_);
    root_raw_[LeafIndex(key)] += delta;
    CountWrite(1);
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
    CountNode(node);
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
    CountWrite(1);
    AddToFaces(box, env, offset, delta);

    if (k <= min_box_side_) {
      int64_t* raw = EnsureRaw(node, mask);
      CountNode(raw);
      raw[LeafIndex(offset)] += delta;
      CountWrite(1);
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
  CountNode(node);
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
  CountWrite(1);
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
    CountNode(raw);
    raw[LeafIndex(box_offset.data())] += delta;
    CountWrite(1);
  }
}

void DdcCore::AddBatch(std::span<const Cell> cells,
                       std::span<const int64_t> deltas,
                       WriteScratch& scratch) {
  DDC_CHECK(cells.size() == deltas.size());
  if (cells.empty()) return;
  if (side_ <= min_box_side_) {
    // Whole cube is one leaf block: the batch costs one block visit.
    bool touched = false;
    for (size_t q = 0; q < cells.size(); ++q) {
      DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
      if (deltas[q] == 0) continue;
      if (root_raw_ == nullptr) root_raw_ = NewLeaf();
      if (!touched) {
        CountNode(root_raw_);
        touched = true;
      }
      total_ += deltas[q];
      root_raw_[LeafIndex(cells[q].data())] += deltas[q];
      CountWrite(1);
    }
    return;
  }
  // The items buffer and the counting-sort scratch outlive the call:
  // consecutive batches on one cube (the ApplyBatch steady state) reuse the
  // grown capacity instead of paying a heap round-trip per batch. Items are
  // never destroyed between batches, so each one's offset Cell keeps its
  // storage too and filling an item allocates nothing.
  std::vector<UpdateItem>& items = scratch.items;
  size_t count = 0;
  for (size_t q = 0; q < cells.size(); ++q) {
    DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
    if (deltas[q] == 0) continue;
    total_ += deltas[q];
    if (count == items.size()) items.emplace_back();
    UpdateItem& item = items[count++];
    item.offset.assign(cells[q].begin(), cells[q].end());
    item.delta = deltas[q];
    item.home = 0;
  }
  if (count == 0) return;
  EnsureNode(&root_);
  scratch.begin.resize(num_children_ + 1);
  scratch.cursor.resize(num_children_);
  AddBatchRec(root_, side_, std::span<UpdateItem>(items.data(), count),
              scratch);
}

void DdcCore::AddBatchRec(Node* node, int64_t node_side,
                          std::span<UpdateItem> items,
                          WriteScratch& scratch) {
  // Once the descent has fanned out to a single item there is nothing left
  // to share; the plain point-update descent finishes the path without the
  // grouping machinery.
  if (items.size() == 1) {
    AddRec(node, node_side, items[0].offset.data(), items[0].delta);
    return;
  }
  // The node (and its box array) is visited once for the whole group, as in
  // the batched query descent.
  CountNode(node);
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  for (UpdateItem& item : items) {
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (item.offset[ui] >= k) {
        mask |= 1u << i;
        item.offset[ui] -= k;
      }
    }
    item.home = mask;
  }
  CountingSortByHome(items, scratch.sorted, scratch.begin, scratch.cursor,
                     num_children_);

  // Contiguous per-item deltas in sorted order: each group's subtotal then
  // collapses to one vectorized block sum instead of a strided struct walk.
  // Only worth the extra pass while the node still holds a crowd; deeper
  // nodes with small groups keep the scalar loop.
  const bool use_delta_buffer = !kernels::UseScalar() && items.size() >= 32;
  if (use_delta_buffer) {
    scratch.deltas.resize(items.size());
    for (size_t q = 0; q < items.size(); ++q) {
      scratch.deltas[q] = items[q].delta;
    }
  }

  // Pass 1: every group's node-local writes (box subtotal + face adds)
  // before any recursion — the node's box array stays hot across groups,
  // and the delta buffer is free again for deeper nodes by the time pass 2
  // descends.
  size_t lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    const auto group = items.subspan(lo, hi - lo);

    int64_t group_sum;
    if (use_delta_buffer) {
      group_sum = kernels::Sum(scratch.deltas.data() + lo, hi - lo);
    } else {
      group_sum = 0;
      for (const UpdateItem& item : group) group_sum += item.delta;
    }
    lo = hi;
    BoxData* box = EnsureBox(node, mask, env);
    box->subtotal += group_sum;  // One write absorbs the whole group.
    CountWrite(1);

    // One face add per update and dimension. (Updates sharing a
    // dimension-j line land on one face cell, Section 4.2, but finding the
    // shared lines costs more than the allocation-free adds it would save.)
    for (const UpdateItem& item : group) {
      AddToFaces(box, env, item.offset.data(), item.delta);
    }
  }

  // Pass 2: descend per group. Before one group's subtree runs, the next
  // group's level-(L+1) target is prefetched, so its miss latency overlaps
  // the current group's work.
  lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    const auto group = items.subspan(lo, hi - lo);
    lo = hi;

    if (lo < items.size()) {
      const uint32_t next_mask = items[lo].home;
      if (k > min_box_side_) {
        if (node->child_nodes != nullptr) {
          kernels::PrefetchRead(node->child_nodes[next_mask]);
        }
      } else if (node->child_raw != nullptr) {
        kernels::PrefetchRead(node->child_raw[next_mask]);
      }
    }

    if (k > min_box_side_) {
      if (node->child_nodes == nullptr) {
        node->child_nodes = arena_->CreateArray<Node*>(num_children_);
      }
      Node* child = EnsureNode(&node->child_nodes[mask]);
      AddBatchRec(child, k, group, scratch);
    } else {
      int64_t* raw = EnsureRaw(node, mask);
      CountNode(raw);
      for (const UpdateItem& item : group) {
        raw[LeafIndex(item.offset.data())] += item.delta;
      }
      CountWrite(static_cast<int64_t>(group.size()));
    }
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
    CountWrite(1);
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
      CountWrite(index);
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
    CountNode(node);
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
        CountRead(1);
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
  CountNode(node);
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
      CountRead(1);
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
  if (cells.empty()) return;
  if (root_raw_ != nullptr) {
    for (size_t q = 0; q < cells.size(); ++q) {
      DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
      out[q] = RawPrefix(root_raw_, cells[q].data());
    }
    return;
  }
  if (root_ == nullptr) {
    std::fill(out.begin(), out.end(), int64_t{0});
    return;
  }
  // PrefixSumBatch is const (ShardedCube runs it from parallel readers),
  // so reusable scratch lives in thread-local storage rather than in the
  // cube. The busy flag covers reentrancy (a nested cube's batch issued
  // from inside an outer batch): the inner call falls back to fresh local
  // buffers instead of clobbering the outer call's scratch.
  BatchTls& tls = GetBatchTls();
  BatchTls local;
  BatchTls& use = tls.busy ? local : tls;
  use.busy = true;
  std::vector<BatchItem>& items = use.items;
  items.resize(cells.size());
  for (size_t q = 0; q < cells.size(); ++q) {
    DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
    out[q] = 0;
    items[q].offset = cells[q];
    items[q].out = &out[q];
  }
  BatchScratch& scratch = use.scratch;
  scratch.begin.resize(num_children_ + 1);
  scratch.cursor.resize(num_children_);
  PrefixSumBatchRec(root_, side_, items, scratch);
  use.busy = false;
}

void DdcCore::PrefixSumBatchRec(const Node* node, int64_t node_side,
                                std::span<BatchItem> items,
                                BatchScratch& scratch) const {
  // The node (and its box array) is visited once for the whole group — this
  // shared visit is the point of batching.
  CountNode(node);
  const int64_t k = node_side / 2;
  const FaceStore::Env env = FaceEnv(k);
  Coord clamped[kMaxDims];
  for (size_t q = 0; q < items.size(); ++q) {
    BatchItem& item = items[q];
    // The child containing the target: exactly the mask whose box classifies
    // as "covered" in the Figure 10 walk.
    uint32_t home_mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (item.offset[static_cast<size_t>(i)] >= k) home_mask |= 1u << i;
    }
    item.home = home_mask;

    // Accumulate this item's contributions from every other present box
    // (before / partial / completely-after), as in PrefixSumRec.
    for (uint32_t mask = 0; mask < num_children_; ++mask) {
      if (mask == home_mask || !node->boxes[mask].present) continue;
      bool before = false;
      int first_beyond = -1;
      for (int i = 0; i < dims_; ++i) {
        size_t ui = static_cast<size_t>(i);
        const Coord rel =
            item.offset[ui] - ((mask & (1u << i)) ? k : 0);
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
      bool all_maxed = true;
      for (int i = 0; i < dims_; ++i) {
        if (clamped[i] != k - 1) {
          all_maxed = false;
          break;
        }
      }
      if (all_maxed || dims_ == 1) {
        *item.out += node->boxes[mask].subtotal;
        CountRead(1);
      } else {
        CountFaceLookup();
        *item.out += ReadFace(node->boxes[mask], env, first_beyond, clamped);
      }
    }

    // Rebase the offset into home-child coordinates for the descent.
    for (int i = 0; i < dims_; ++i) {
      if (home_mask & (1u << i)) item.offset[static_cast<size_t>(i)] -= k;
    }
  }

  // Counting sort the group by home child so each child is descended once,
  // with its queries contiguous. The scratch buffers are free again by the
  // time the recursion below re-enters this function. A one-item group is
  // already sorted — deep levels are dominated by them, so skipping the
  // sort there matters.
  if (items.size() > 1) {
    CountingSortByHome(items, scratch.sorted, scratch.begin, scratch.cursor,
                       num_children_);
  }

  // Groups are contiguous runs of equal `home`; rediscover them by scanning
  // (begin/cursor are clobbered once the recursion reuses the scratch).
  size_t lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    auto group = items.subspan(lo, hi - lo);
    lo = hi;

    // Prefetch the next group's level-(L+1) target so its cache miss
    // overlaps this group's descent.
    if (lo < items.size()) {
      const uint32_t next_mask = items[lo].home;
      if (node->boxes[next_mask].present) {
        if (k <= min_box_side_) {
          if (node->child_raw != nullptr) {
            kernels::PrefetchRead(node->child_raw[next_mask]);
          }
        } else if (node->child_nodes != nullptr) {
          kernels::PrefetchRead(node->child_nodes[next_mask]);
        }
      }
    }

    if (!node->boxes[mask].present) continue;  // All-zero region: adds 0.
    if (k <= min_box_side_) {
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
      DDC_DCHECK(raw != nullptr);
      for (BatchItem& item : group) {
        *item.out += RawPrefix(raw, item.offset.data());
      }
    } else {
      const Node* child =
          node->child_nodes != nullptr ? node->child_nodes[mask] : nullptr;
      DDC_DCHECK(child != nullptr);
      PrefixSumBatchRec(child, k, group, scratch);
    }
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
                           const Coord* offset, OpCounters* counters,
                           const NodeVisitListener* listener) {
  if (kernels::UseScalar()) {
    return RawPrefixScalarRef(raw, dims, shift, offset, counters, listener);
  }
  // A leaf block is one secondary-storage unit.
  CountNode(counters, listener, raw);
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
  CountRead(counters, reads);
  return sum;
}

int64_t DdcCore::RawPrefixScalarRef(const int64_t* raw, int dims, int shift,
                                    const Coord* offset,
                                    OpCounters* counters,
                                    const NodeVisitListener* listener) {
  // A leaf block is one secondary-storage unit.
  CountNode(counters, listener, raw);
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
  CountRead(counters, reads);
  return sum;
}

int64_t DdcCore::Get(const Cell& cell) const {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  if (root_raw_ != nullptr) {
    CountRead(1);
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
      CountRead(1);
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
