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
//   * d-1 >= 2: a nested (d-1)-dimensional Dynamic Data Cube, or — when the
//     face is no larger than the nested cube's leaf block, so that cube
//     would be one raw slab — that slab itself (a leaf face).
//
// Reading a row-sum value is PrefixSum(y); updating A[anchor + off] is
// Add(transverse(off), delta): the line sum through the updated cell changes
// by delta.
//
// Layout: a FaceStore is 16 trivially destructible bytes, so the d faces of
// an overlay box sit inline in one arena array next to the box's subtotal.
// Each shape has one representation, chosen by the Env:
//
//   face                    | storage                       | loads to data
//   B_c, capacity <= 2      | entries inline in the BcFace  | 0
//   B_c, capacity > 2       | BcFace root -> arena nodes    | 1 per level
//   leaf (d-1 >= 2, small)  | pointer -> side^(d-1) slab    | 1
//   nested (d-1 >= 2)       | pointer -> DdcCore (<= 128 B) | 1 + its tree
//   Fenwick (ablation)      | pointer -> FenwickTree        | 2
//
// Every pointed-to store lives in the owning cube's arena and dies with it.
// Which kind a face is, and everything shared by all faces of one side —
// the B_c shape, the leaf shift, the arena — is not stored per face: the
// owning core passes it on every call as an Env. Keys are passed as bare
// coordinate arrays the caller treats as scratch: a nested face core
// rebases the key in place as it descends instead of copying it, so
// neither side allocates. One-dimensional faces (the faces of a 2-D box)
// take their single coordinate by value through AddLine / PrefixSumLine.

#ifndef DDC_DDC_FACE_STORE_H_
#define DDC_DDC_FACE_STORE_H_

#include <cstdint>
#include <memory>

#include "bctree/bc_tree.h"
#include "common/arena.h"
#include "common/cell.h"
#include "common/md_array.h"
#include "ddc/ddc_options.h"

namespace ddc {

class DdcCore;
class FenwickTree;
struct DdcStats;

class FaceStore {
 public:
  enum class Kind : uint8_t { kBcTree, kFenwick, kNested, kLeaf };

  // What every face of one side shares, supplied by the owning core.
  struct Env {
    Kind kind;
    int transverse_dims;  // d - 1.
    int leaf_shift;       // log2(side) (kLeaf only).
    int64_t side;
    BcShape bc;           // The B_c tree shape over `side` (kBcTree only).
    Arena* arena;         // Backs B_c nodes, leaf slabs and pointed stores.
  };

  // The Env of faces with `transverse_dims` (= d-1) dimensions of extent
  // `side`, allocating from `arena` (not owned; must outlive the faces).
  static Env MakeEnv(int transverse_dims, int64_t side,
                     const DdcOptions& options, Arena* arena);

  // An empty (all-zero) face. Default-constructible so arrays of faces can
  // be carved out of an arena in one allocation; a B_c face needs nothing
  // more.
  FaceStore() = default;

  // Creates the Fenwick tree or nested core a kFenwick / kNested face
  // points to; a leaf face's slab and a B_c face's nodes come with their
  // first nonzero write.
  void Init(const Env& env, const DdcOptions& options);

  // Adds `delta` to the line sum at transverse position `y` (d-1 coords,
  // each in [0, side)). `y` is scratch: a nested face rebases it in place,
  // so its contents are unspecified on return.
  void Add(const Env& env, Coord* y, int64_t delta);

  // Returns F_j at `y`: the cumulative row sum over transverse prefix
  // [0 .. y]. Same scratch contract for `y` as Add.
  int64_t PrefixSum(const Env& env, Coord* y) const;

  // Add / PrefixSum for a one-dimensional face (d-1 == 1), keyed by its
  // single transverse coordinate.
  void AddLine(const Env& env, Coord y, int64_t delta);
  int64_t PrefixSumLine(const Env& env, Coord y) const;

  int64_t StorageCells(const Env& env) const;

  // Adds this face to the hierarchy census: one B_c face, one leaf face, or
  // one nested core plus everything inside it.
  void CountFaces(const Env& env, DdcStats* stats) const;

  // Bulk-builds the store from the dense line-sum array G_j (shape: d-1
  // dimensions of extent `side`). The store must be empty. Used by the
  // bottom-up bulk loader.
  void BuildFromDense(const Env& env, const MdArray<int64_t>& line_sums);

  // A standalone store (tests): one face plus the arena and Env backing it.
  class Owned {
   public:
    void Add(Coord* y, int64_t delta) { store_->Add(env_, y, delta); }
    int64_t PrefixSum(Coord* y) const { return store_->PrefixSum(env_, y); }
    int64_t StorageCells() const { return store_->StorageCells(env_); }
    void BuildFromDense(const MdArray<int64_t>& line_sums) {
      store_->BuildFromDense(env_, line_sums);
    }

   private:
    friend class FaceStore;
    std::unique_ptr<Arena> arena_;
    Env env_;
    FaceStore* store_ = nullptr;  // Lives in *arena_.
  };
  static Owned Create(int transverse_dims, int64_t side,
                      const DdcOptions& options);

 private:
  // Env::kind says which member is live.
  union {
    BcFace bc_{};
    FenwickTree* fenwick_;
    DdcCore* nested_;
    int64_t* leaf_;  // Null until the first nonzero write.
  };
};

}  // namespace ddc

#endif  // DDC_DDC_FACE_STORE_H_
