#include "ddc/snapshot.h"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "common/workload.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

// Populates a cube with a deterministic random pattern.
void Populate(DynamicDataCube* cube, int ops, uint64_t seed) {
  WorkloadGenerator gen(Shape::Cube(cube->dims(), 64), seed);
  for (const UpdateOp& op : gen.UniformUpdates(ops, -9, 9)) {
    cube->Add(op.cell, op.delta);
  }
}

void ExpectSameAnswers(const DynamicDataCube& a, const DynamicDataCube& b,
                       uint64_t seed) {
  EXPECT_EQ(a.dims(), b.dims());
  EXPECT_EQ(a.side(), b.side());
  EXPECT_EQ(a.DomainLo(), b.DomainLo());
  EXPECT_EQ(a.TotalSum(), b.TotalSum());
  WorkloadGenerator gen(Shape::Cube(a.dims(), a.side()), seed);
  const Cell lo = a.DomainLo();
  for (int i = 0; i < 100; ++i) {
    Box box = gen.UniformBox();
    for (int d = 0; d < a.dims(); ++d) {
      size_t ud = static_cast<size_t>(d);
      box.lo[ud] += lo[ud];
      box.hi[ud] += lo[ud];
    }
    ASSERT_EQ(a.RangeSum(box), b.RangeSum(box)) << box.ToString();
  }
}

TEST(SnapshotTest, RoundTripThroughStream) {
  DynamicDataCube cube(2, 64);
  Populate(&cube, 300, 5);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  ExpectSameAnswers(cube, *loaded, 6);
}

TEST(SnapshotTest, RoundTripEmptyCube) {
  DynamicDataCube cube(3, 16);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->TotalSum(), 0);
  EXPECT_EQ(loaded->side(), 16);
  EXPECT_EQ(loaded->dims(), 3);
}

TEST(SnapshotTest, RoundTripPreservesGrownDomain) {
  DynamicDataCube cube(2, 4);
  cube.Add({-100, 50}, 7);
  cube.Add({30, -80}, 9);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->DomainLo(), cube.DomainLo());
  EXPECT_EQ(loaded->side(), cube.side());
  EXPECT_EQ(loaded->Get({-100, 50}), 7);
  EXPECT_EQ(loaded->Get({30, -80}), 9);
  ExpectSameAnswers(cube, *loaded, 7);
}

// Every DdcOptions field is persisted; each way a flag can go.
TEST(SnapshotTest, RoundTripPreservesOptions) {
  for (const bool use_fenwick : {false, true}) {
    SCOPED_TRACE(use_fenwick ? "fenwick" : "bc");
    DdcOptions options;
    options.bc_fanout = 4;
    options.use_fenwick = use_fenwick;
    options.elide_levels = 2;
    DynamicDataCube cube(2, 32, options);
    Populate(&cube, 100, 8);
    std::stringstream stream;
    ASSERT_TRUE(WriteSnapshot(cube, &stream));
    auto loaded = ReadSnapshot(&stream);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->options().bc_fanout, 4);
    EXPECT_EQ(loaded->options().use_fenwick, use_fenwick);
    EXPECT_EQ(loaded->options().elide_levels, 2);
    ExpectSameAnswers(cube, *loaded, 9);
  }
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::stringstream stream;
  stream << "NOTADDC1 garbage follows";
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

TEST(SnapshotTest, RejectsTruncatedStream) {
  DynamicDataCube cube(2, 64);
  Populate(&cube, 50, 10);
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(cube, &full));
  const std::string bytes = full.str();
  // Truncate at several byte offsets: header, geometry, mid-records.
  for (size_t cut : {size_t{4}, size_t{10}, size_t{30}, bytes.size() - 5}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_EQ(ReadSnapshot(&truncated), nullptr) << "cut=" << cut;
  }
}

TEST(SnapshotTest, RejectsInvalidGeometry) {
  // Handcraft a header with a non-power-of-two side.
  std::stringstream stream;
  stream.write("DDCSNAP1", 8);
  int32_t dims = 2;
  int64_t side = 100;  // Not a power of two.
  stream.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
  stream.write(reinterpret_cast<const char*>(&side), sizeof(side));
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

TEST(SnapshotTest, FileRoundTrip) {
  DynamicDataCube cube(2, 32);
  Populate(&cube, 200, 11);
  const std::string path = "/tmp/ddc_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshotToFile(cube, path));
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_NE(loaded, nullptr);
  ExpectSameAnswers(cube, *loaded, 12);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadFromMissingFileFails) {
  EXPECT_EQ(LoadSnapshotFromFile("/tmp/ddc_no_such_file.bin"), nullptr);
}

}  // namespace
}  // namespace ddc
