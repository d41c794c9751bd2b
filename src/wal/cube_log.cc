#include "wal/cube_log.h"

#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/check.h"
#include "ddc/snapshot.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace ddc {

namespace {

// Registry handles, resolved once per process (see src/obs/metrics.h).
struct WalObs {
  obs::Counter& appends;
  obs::Counter& syncs;
  obs::Counter& checkpoints;
  obs::Counter& replay_records;
  obs::Counter& group_commit_batches;
  obs::Counter& group_commit_ops;
  obs::Histogram& append_ns;
  obs::Histogram& sync_ns;
  obs::Histogram& replay_ns;

  static WalObs& Get() {
    static WalObs* wal = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new WalObs{*reg.GetCounter("wal.appends"),
                        *reg.GetCounter("wal.syncs"),
                        *reg.GetCounter("wal.checkpoints"),
                        *reg.GetCounter("wal.replay.records"),
                        *reg.GetCounter("wal.group_commit.batches"),
                        *reg.GetCounter("wal.group_commit.ops"),
                        *reg.GetHistogram("wal.append.ns"),
                        *reg.GetHistogram("wal.sync.ns"),
                        *reg.GetHistogram("wal.replay.ns")};
    }();
    return *wal;
  }
};

constexpr char kMagic[8] = {'D', 'D', 'C', 'W', 'L', 'O', 'G', '2'};
constexpr int32_t kMaxBatchOps = CubeLog::kMaxBatchOps;

// Record checksum: a simple multiply-xor mix over every field of the batch
// record. Not cryptographic — it detects torn writes and bit flips, which
// is all a local WAL needs.
uint64_t Mix(std::span<const Mutation> batch) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  auto fold = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    h *= 0xff51afd7ed558ccdull;
  };
  fold(static_cast<int64_t>(batch.size()));
  for (const Mutation& m : batch) {
    fold(static_cast<int64_t>(m.kind));
    for (Coord c : m.cell) fold(c);
    // The high corner is folded only for range kinds, mirroring the record
    // layout — point records hash (and serialize) exactly as they did
    // before range kinds existed, so pre-range logs still validate.
    if (m.is_range()) {
      for (Coord c : m.hi) fold(c);
    }
    fold(m.delta);
  }
  return h;
}

template <typename T>
void WritePod(std::ostream* out, T value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
void AppendPod(std::string* buf, T value) {
  buf->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(*value));
  return in->gcount() == static_cast<std::streamsize>(sizeof(*value));
}

bool WriteHeader(const std::string& path, int dims) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  out.write(kMagic, sizeof(kMagic));
  WritePod<int32_t>(&out, dims);
  return out.good();
}

// Returns the header's dims, or -1 when missing/invalid.
int ReadHeader(std::istream* in) {
  char magic[8];
  in->read(magic, sizeof(magic));
  if (in->gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return -1;
  }
  int32_t dims = 0;
  if (!ReadPod(in, &dims) || dims < 1 || dims > 20) return -1;
  return dims;
}

}  // namespace

CubeLog::CubeLog(std::ofstream out, std::string path, int dims)
    : out_(std::move(out)), path_(std::move(path)), dims_(dims) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  written_bytes_ = ec ? 0 : static_cast<int64_t>(size);
  synced_bytes_ = written_bytes_;
}

CubeLog::~CubeLog() {
  if (!poisoned_) return;
  // An injected write/sync failure is a crash point: the bytes the caller
  // was never acked for must not outlive this handle, including anything a
  // closing flush would push out. Close first (the stream may flush), then
  // cut the file back to the last durable byte.
  out_.close();
  std::error_code ec;
  std::filesystem::resize_file(path_, static_cast<uintmax_t>(synced_bytes_),
                               ec);
}

std::unique_ptr<CubeLog> CubeLog::Open(const std::string& path, int dims) {
  DDC_CHECK(dims >= 1 && dims <= 20);
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe.is_open()) {
      const int existing = ReadHeader(&probe);
      if (existing != dims) return nullptr;  // Mismatch or corrupt header.
    } else if (!WriteHeader(path, dims)) {
      return nullptr;
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out.is_open()) return nullptr;
  return std::unique_ptr<CubeLog>(new CubeLog(std::move(out), path, dims));
}

bool CubeLog::Append(const Cell& cell, int64_t delta) {
  const Mutation m{cell, delta, MutationKind::kAdd};
  return AppendBatch(std::span<const Mutation>(&m, 1));
}

bool CubeLog::AppendBatch(std::span<const Mutation> batch) {
  if (batch.empty()) return true;
  if (poisoned_) return false;
  if (!BatchWellFormed(batch, dims_) ||
      batch.size() > static_cast<size_t>(kMaxBatchOps)) {
    return false;  // Recoverable caller error; nothing written.
  }
  obs::ScopedLatencyTimer timer(&WalObs::Get().append_ns);
  if (obs::Enabled()) {
    WalObs::Get().appends.Increment();
    WalObs::Get().group_commit_batches.Increment();
    WalObs::Get().group_commit_ops.Add(static_cast<int64_t>(batch.size()));
  }
  // Serialize the whole record up front: the stream sees one contiguous
  // write, and the short-write failpoint below can tear it at an arbitrary
  // byte the way a crash mid-write() would.
  std::string buf;
  buf.reserve(sizeof(int32_t) +
              batch.size() * (sizeof(int32_t) +
                              (2 * static_cast<size_t>(dims_) + 1) *
                                  sizeof(int64_t)) +
              sizeof(uint64_t));
  AppendPod<int32_t>(&buf, static_cast<int32_t>(batch.size()));
  for (const Mutation& m : batch) {
    AppendPod<int32_t>(&buf, static_cast<int32_t>(m.kind));
    for (Coord c : m.cell) AppendPod<int64_t>(&buf, c);
    // Range records carry 2d coordinates: low corner, then high corner.
    // Point records keep the pre-range byte layout.
    if (m.is_range()) {
      for (Coord c : m.hi) AppendPod<int64_t>(&buf, c);
    }
    AppendPod<int64_t>(&buf, m.delta);
  }
  AppendPod<uint64_t>(&buf, Mix(batch));
  if (DDC_FAULTPOINT("wal.write.short")) {
    // Write + flush a strict prefix of the record, then poison: the torn
    // bytes are on disk (replay must discard them) and nothing may ever be
    // appended behind them.
    const auto cut = static_cast<std::streamsize>(
        fault::RandBelow(static_cast<uint64_t>(buf.size())));
    out_.write(buf.data(), cut);
    out_.flush();
    written_bytes_ += static_cast<int64_t>(cut);
    if (out_.good()) synced_bytes_ = written_bytes_;
    poisoned_ = true;
    return false;
  }
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out_.good()) return false;
  written_bytes_ += static_cast<int64_t>(buf.size());
  appended_ += static_cast<int64_t>(batch.size());
  return true;
}

bool CubeLog::Sync() {
  obs::ScopedLatencyTimer timer(&WalObs::Get().sync_ns);
  if (obs::Enabled()) WalObs::Get().syncs.Increment();
  if (poisoned_) return false;
  if (DDC_FAULTPOINT("wal.sync.fail")) {
    // The flush never happens: buffered records are lost when the handle
    // dies (the destructor truncates back to synced_bytes_).
    poisoned_ = true;
    return false;
  }
  out_.flush();
  if (!out_.good()) return false;
  synced_bytes_ = written_bytes_;
  return true;
}

ReplayResult CubeLog::Replay(const std::string& path, DynamicDataCube* cube) {
  ReplayResult result;
  obs::TraceSpan span("wal.replay", 0, 0, &WalObs::Get().replay_ns);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return result;
  const int dims = ReadHeader(&in);
  if (dims < 0 || dims != cube->dims()) return result;
  result.header_ok = true;

  MutationBatch batch;
  while (true) {
    // The count field decides between clean EOF (nothing of a record read)
    // and a torn record (any bytes of a record present).
    int32_t count = 0;
    if (!ReadPod(&in, &count)) {
      result.clean_tail = (in.gcount() == 0);
      break;
    }
    if (count < 1 || count > kMaxBatchOps) {
      result.clean_tail = false;  // Garbage count: treat as torn.
      break;
    }
    batch.clear();
    batch.reserve(static_cast<size_t>(count));
    bool complete = true;
    for (int32_t r = 0; r < count && complete; ++r) {
      int32_t kind = 0;
      Mutation m;
      m.cell.resize(static_cast<size_t>(dims));
      // Kind gates how many coordinates follow, so it must be validated
      // before the reads it steers (0..3: add, set, range-add, range-set).
      complete = ReadPod(&in, &kind) && kind >= 0 && kind <= 3;
      for (int i = 0; i < dims && complete; ++i) {
        complete = ReadPod(&in, &m.cell[static_cast<size_t>(i)]);
      }
      if (complete && IsRangeKind(static_cast<MutationKind>(kind))) {
        m.hi.resize(static_cast<size_t>(dims));
        for (int i = 0; i < dims && complete; ++i) {
          complete = ReadPod(&in, &m.hi[static_cast<size_t>(i)]);
        }
      }
      complete = complete && ReadPod(&in, &m.delta);
      if (!complete) break;
      m.kind = static_cast<MutationKind>(kind);
      batch.push_back(std::move(m));
    }
    uint64_t checksum = 0;
    complete = complete && ReadPod(&in, &checksum);
    if (!complete || checksum != Mix(batch)) {
      result.clean_tail = false;  // Mid-record EOF or bit flip: torn tail.
      break;
    }
    // The whole record lands through the batched write path — replay
    // reconstructs the original group commit, all-or-nothing.
    cube->ApplyBatch(batch);
    result.applied += count;
    ++result.batches;
  }
  if (obs::Enabled()) {
    WalObs::Get().replay_records.Add(result.applied);
    span.set_arg0(result.applied);
    span.set_arg1(result.clean_tail ? 1 : 0);
  }
  return result;
}

bool CubeLog::Reset(const std::string& path, int dims) {
  return WriteHeader(path, dims);
}

DurableCube::DurableCube(int dims, int64_t initial_side,
                         const std::string& base_path, DdcOptions options)
    : snapshot_path_(base_path + ".snap"), log_path_(base_path + ".log") {
  // Recover: snapshot first (if present), then replay the log on top.
  cube_ = LoadSnapshotFromFile(snapshot_path_);
  if (cube_ == nullptr) {
    cube_ = std::make_unique<DynamicDataCube>(dims, initial_side, options);
  }
  DDC_CHECK(cube_->dims() == dims);
  {
    std::ifstream probe(log_path_, std::ios::binary);
    if (probe.is_open()) {
      probe.close();
      recovery_ = CubeLog::Replay(log_path_, cube_.get());
      if (!recovery_.clean_tail) {
        // Discard the torn tail by checkpointing the recovered state.
        if (SaveSnapshotToFile(*cube_, snapshot_path_)) {
          CubeLog::Reset(log_path_, dims);
        }
      }
    }
  }
  log_ = CubeLog::Open(log_path_, dims);
  // Count re-roots from here on, so replay-induced growth doesn't
  // immediately demand a checkpoint of a cube that was just
  // snapshot-consistent.
  checkpoint_epoch_ = cube_->ReRootEpoch();
}

bool DurableCube::Add(const Cell& cell, int64_t delta, bool sync) {
  bool logged = false;
  if (log_ != nullptr) {
    logged = log_->Append(cell, delta);
    if (sync) logged = log_->Sync() && logged;
  }
  cube_->Add(cell, delta);
  return logged;
}

bool DurableCube::ApplyBatch(std::span<const Mutation> batch, bool sync) {
  if (!BatchWellFormed(batch, cube_->dims()) ||
      batch.size() > static_cast<size_t>(CubeLog::kMaxBatchOps)) {
    return false;  // Malformed: recoverable error, nothing logged or applied.
  }
  if (batch.empty()) return true;
  // Log-before-apply, like Add — but the whole batch rides one record and
  // (with sync) one flush: the group commit.
  bool logged = false;
  if (log_ != nullptr) {
    logged = log_->AppendBatch(batch);
    if (sync) logged = log_->Sync() && logged;
  }
  cube_->ApplyBatch(batch);
  if (logged) {
    // Crash latch for recovery harnesses: the batch is durable here but the
    // caller has not observed the ack yet — the one window where recovery
    // may legitimately come back with one more batch than was acked.
    (void)DDC_FAULTPOINT("wal.commit.acked");
  }
  return logged;
}

bool DurableCube::Checkpoint() {
  obs::TraceSpan span("wal.checkpoint");
  if (obs::Enabled()) WalObs::Get().checkpoints.Increment();
  if (log_ != nullptr && !log_->Sync()) return false;
  if (!SaveSnapshotToFile(*cube_, snapshot_path_)) return false;
  // Reset the log; reopen the append handle.
  log_.reset();
  if (!CubeLog::Reset(log_path_, cube_->dims())) return false;
  log_ = CubeLog::Open(log_path_, cube_->dims());
  checkpoint_epoch_ = cube_->ReRootEpoch();
  return log_ != nullptr;
}

bool DurableCube::CheckpointIfRerooted() {
  if (reroots_since_checkpoint() == 0) return true;
  return Checkpoint();
}

}  // namespace ddc
