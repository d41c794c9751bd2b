#include "ddc/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <system_error>
#include <vector>

#include "common/bit_util.h"
#include "fault/failpoint.h"

namespace ddc {

namespace {

constexpr char kMagic[8] = {'D', 'D', 'C', 'S', 'N', 'A', 'P', '1'};

template <typename T>
void WritePod(std::ostream* out, T value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(*value));
  return in->good();
}

}  // namespace

bool WriteSnapshot(const DynamicDataCube& cube, std::ostream* out) {
  out->write(kMagic, sizeof(kMagic));
  WritePod<int32_t>(out, cube.dims());
  WritePod<int64_t>(out, cube.side());
  for (Coord c : cube.DomainLo()) WritePod<int64_t>(out, c);
  WritePod<int32_t>(out, cube.options().bc_fanout);
  WritePod<int8_t>(out, cube.options().use_fenwick ? 1 : 0);
  WritePod<int32_t>(out, cube.options().elide_levels);

  // Count first (ForEachNonZero order is deterministic for a given cube).
  int64_t count = 0;
  cube.ForEachNonZero([&](const Cell&, int64_t) { ++count; });
  WritePod<int64_t>(out, count);
  cube.ForEachNonZero([&](const Cell& cell, int64_t value) {
    for (Coord c : cell) WritePod<int64_t>(out, c);
    WritePod<int64_t>(out, value);
  });
  return out->good();
}

std::unique_ptr<DynamicDataCube> ReadSnapshot(std::istream* in) {
  char magic[8];
  in->read(magic, sizeof(magic));
  if (!in->good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return nullptr;
  }
  int32_t dims = 0;
  int64_t side = 0;
  if (!ReadPod(in, &dims) || !ReadPod(in, &side)) return nullptr;
  if (dims < 1 || dims > 20 || side < 2 || !IsPowerOfTwo(side)) {
    return nullptr;
  }
  Cell origin(static_cast<size_t>(dims));
  for (int i = 0; i < dims; ++i) {
    if (!ReadPod(in, &origin[static_cast<size_t>(i)])) return nullptr;
  }
  DdcOptions options;
  int8_t use_fenwick = 0;
  if (!ReadPod(in, &options.bc_fanout) || !ReadPod(in, &use_fenwick) ||
      !ReadPod(in, &options.elide_levels)) {
    return nullptr;
  }
  // Bound the fanout: DdcCore never accepts one beyond kMaxBcFanout, and a
  // corrupted stream must not trigger huge node allocations.
  if (options.bc_fanout < 2 || options.bc_fanout > kMaxBcFanout ||
      options.elide_levels < 0 || options.elide_levels >= 62) {
    return nullptr;
  }
  options.use_fenwick = use_fenwick != 0;

  int64_t count = 0;
  if (!ReadPod(in, &count) || count < 0) return nullptr;

  // Restore the exact domain placement so prefix-sum anchors match the
  // original cube.
  auto cube = std::make_unique<DynamicDataCube>(dims, side, options, origin);

  Cell cell(static_cast<size_t>(dims));
  for (int64_t r = 0; r < count; ++r) {
    bool in_domain = true;
    for (int i = 0; i < dims; ++i) {
      if (!ReadPod(in, &cell[static_cast<size_t>(i)])) return nullptr;
      const Coord rel = cell[static_cast<size_t>(i)] -
                        origin[static_cast<size_t>(i)];
      in_domain = in_domain && rel >= 0 && rel < side;
    }
    int64_t value = 0;
    if (!ReadPod(in, &value)) return nullptr;
    // A well-formed snapshot only records cells inside its declared domain;
    // anything else is corruption. Validating here also keeps a hostile
    // stream from driving unbounded domain growth during the replay.
    if (!in_domain) return nullptr;
    cube->Add(cell, value);
  }
  return cube;
}

bool SaveSnapshotToFile(const DynamicDataCube& cube, const std::string& path) {
  // Write-to-temp + rename: the old snapshot stays intact until the new one
  // is fully on disk. Writing over `path` directly would let a crash (or
  // the wal.checkpoint.tear failpoint) destroy the only snapshot while the
  // log holds just post-checkpoint records — unrecoverable data loss.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    if (!WriteSnapshot(cube, &out) || !out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (DDC_FAULTPOINT("wal.checkpoint.tear")) {
    // Simulate a crash mid-checkpoint: the temp file is torn at a
    // fault-chosen byte and never renamed. The previous snapshot (if any)
    // survives untouched, which is the property this failpoint exists to
    // prove.
    std::error_code ec;
    const auto size = std::filesystem::file_size(tmp, ec);
    if (!ec && size > 0) {
      std::filesystem::resize_file(
          tmp, fault::RandBelow(static_cast<uint64_t>(size)), ec);
    }
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::unique_ptr<DynamicDataCube> LoadSnapshotFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return nullptr;
  return ReadSnapshot(&in);
}

}  // namespace ddc
