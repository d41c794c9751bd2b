#include "common/cube_interface.h"

#include <ostream>

#include "common/check.h"

namespace ddc {

int64_t CubeInterface::RangeSum(const Box& box) const {
  const Box clipped = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
  if (clipped.IsEmpty()) return 0;
  return RangeSumFromPrefix(clipped, DomainLo(),
                            [this](const Cell& c) { return PrefixSum(c); });
}

void CubeInterface::RangeSumBatch(std::span<const Box> ranges,
                                  std::span<int64_t> out) const {
  DDC_CHECK(ranges.size() == out.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    out[i] = RangeSum(ranges[i]);
  }
}

void CubeInterface::RangeAdd(const Box& box, int64_t delta) {
  const Box clipped = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
  if (clipped.IsEmpty() || delta == 0) return;
  ForEachCellInBox(clipped, [this, delta](const Cell& c) { Add(c, delta); });
}

void CubeInterface::RangeSet(const Box& box, int64_t value) {
  const Box clipped = IntersectBoxes(box, Box{DomainLo(), DomainHi()});
  if (clipped.IsEmpty()) return;
  ForEachCellInBox(clipped, [this, value](const Cell& c) { Set(c, value); });
}

bool CubeInterface::ApplyBatch(std::span<const Mutation> batch) {
  if (!BatchWellFormed(batch, dims())) return false;
  for (const Mutation& m : batch) {
    switch (m.kind) {
      case MutationKind::kAdd:
        Add(m.cell, m.delta);
        break;
      case MutationKind::kSet:
        Set(m.cell, m.delta);
        break;
      case MutationKind::kRangeAdd:
        RangeAdd(m.box(), m.delta);
        break;
      case MutationKind::kRangeSet:
        RangeSet(m.box(), m.delta);
        break;
    }
  }
  return true;
}

void CubeInterface::ShrinkToFit(int64_t /*min_side*/) {}

void CubeInterface::ExplainPlan(std::span<const Box> /*rows*/,
                                std::ostream& os) const {
  os << "  backend: " << name() << " (no corner planner)\n";
}

}  // namespace ddc
