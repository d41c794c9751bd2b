// Write-ahead logging for dynamic cubes.
//
// The paper's whole point is cheap point updates; making them *durable*
// requires an append-only log paired with periodic snapshots
// (ddc/snapshot.h). CubeLog is that log. The unit of logging is the same as
// the unit of the write path everywhere else: a MutationBatch. One record
// holds a whole batch behind a single checksum, so a group commit costs one
// append and one sync no matter how many mutations it carries, and replay
// applies each record through ApplyBatch — a batch is durable
// all-or-nothing (a torn or corrupt record ends replay; everything before
// it applies).
//
// File layout (little-endian):
//   magic "DDCWLOG2" (8 bytes), int32 dims
//   records: { int32 count;
//              count x { int32 kind; int64 cell[dims];
//                        int64 hi[dims] (range kinds only); int64 value };
//              uint64 checksum }
// where checksum = Mix(count, mutations...) (see implementation) and kind
// is MutationKind (0 = add, 1 = set, 2 = range-add, 3 = range-set). Range
// mutations carry 2d coordinates — the box's low corner in `cell` and its
// high corner in `hi` — so a region-wide write costs one fixed-size record
// no matter how many cells the box covers. Point records keep the exact
// pre-range byte layout (the checksum folds `hi` only for range kinds), so
// logs written before range kinds existed replay unchanged. A point Append
// is a count-1 record. "DDCWLOG1" logs (the pre-batch format, one record
// per point delta) are not readable; recovery treats them as a bad header.

#ifndef DDC_WAL_CUBE_LOG_H_
#define DDC_WAL_CUBE_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>

#include "common/cell.h"
#include "common/mutation.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {

struct ReplayResult {
  bool header_ok = false;
  // Mutations applied successfully (summed over whole batch records; a
  // batch never applies partially).
  int64_t applied = 0;
  // Batch records applied successfully.
  int64_t batches = 0;
  // False when replay stopped at a corrupt/torn record (the tail was
  // discarded — the expected state after a crash mid-append).
  bool clean_tail = true;
};

class CubeLog {
 public:
  // Upper bound on the per-record mutation count accepted at append and
  // replay. A torn or corrupt count field would otherwise send the reader
  // chasing gigabytes of garbage before noticing; any value past this is
  // treated as a torn tail (and oversized batches are rejected at append).
  static constexpr int32_t kMaxBatchOps = 1 << 20;

  // Opens `path` for appending, creating it (with a header) if absent. An
  // existing file must carry a matching header. Returns nullptr on error.
  static std::unique_ptr<CubeLog> Open(const std::string& path, int dims);

  CubeLog(const CubeLog&) = delete;
  CubeLog& operator=(const CubeLog&) = delete;

  // If an injected failure poisoned the handle, destruction truncates the
  // file back to the last durably synced byte: everything the caller was
  // never acked for is gone, exactly as if the process had died at the
  // failure point. (A clean handle closes normally.)
  ~CubeLog();

  int dims() const { return dims_; }

  // Appends one point update as a count-1 batch record (buffered). Returns
  // false on write failure.
  bool Append(const Cell& cell, int64_t delta);

  // Appends the whole batch as ONE record behind one checksum (buffered);
  // with the Sync that follows a group commit, the batch costs one append
  // + one sync regardless of size. Returns false — writing nothing — on a
  // malformed batch (cell arity != dims(), or more than kMaxBatchOps
  // mutations), and false on write failure. An empty batch writes nothing
  // and succeeds.
  //
  // Failpoint `wal.write.short` (DDC_FAULTS builds): tears the record at a
  // fault-chosen byte, flushes the torn prefix, and poisons the handle.
  bool AppendBatch(std::span<const Mutation> batch);

  // Flushes buffered records to the file.
  //
  // Failpoint `wal.sync.fail`: reports failure without flushing and
  // poisons the handle (the buffered bytes will never reach the file).
  bool Sync();

  // True once an injected write/sync failure occurred. A poisoned log
  // accepts no further appends or syncs: anything written after a failed
  // write would sit behind garbage and silently vanish at replay, so the
  // only sound continuation is crash + recovery (see DESIGN.md §11).
  bool poisoned() const { return poisoned_; }

  // Mutations appended through this handle (batches count each mutation).
  int64_t appended() const { return appended_; }

  // Replays `path` into `cube` (whose dimensionality must match the log's).
  static ReplayResult Replay(const std::string& path, DynamicDataCube* cube);

  // Resets `path` to an empty log (after a checkpoint). Returns false on
  // I/O failure.
  static bool Reset(const std::string& path, int dims);

 private:
  CubeLog(std::ofstream out, std::string path, int dims);

  std::ofstream out_;
  std::string path_;
  int dims_;
  int64_t appended_ = 0;
  // Crash-simulation bookkeeping (meaningful only under injected faults):
  // bytes logically written through this handle vs bytes known flushed.
  int64_t written_bytes_ = 0;
  int64_t synced_bytes_ = 0;
  bool poisoned_ = false;
};

// DurableCube: a DynamicDataCube whose updates are logged before they are
// applied, with snapshot checkpointing and crash recovery.
//
//   DurableCube cube(2, 16, "/data/sales");     // opens *.snap + *.log
//   cube.Add({37, 220}, 150);                   // logged, then applied
//   cube.Checkpoint();                          // snapshot + log reset
//
// Recovery happens in the constructor: the snapshot (if any) is loaded and
// the log replayed on top, discarding a torn tail.
class DurableCube {
 public:
  // `base_path` names the snapshot (`<base>.snap`) and log (`<base>.log`).
  // `dims`/`initial_side`/`options` apply when starting fresh.
  DurableCube(int dims, int64_t initial_side, const std::string& base_path,
              DdcOptions options = {});

  DurableCube(const DurableCube&) = delete;
  DurableCube& operator=(const DurableCube&) = delete;

  // False when the constructor could not open/create its files; the cube
  // still works in memory but nothing is durable.
  bool durable() const { return log_ != nullptr; }

  DynamicDataCube& cube() { return *cube_; }
  const DynamicDataCube& cube() const { return *cube_; }

  // Logs, then applies. `sync` forces a flush (call it per transaction
  // boundary; leaving it false batches flushes until Checkpoint).
  bool Add(const Cell& cell, int64_t delta, bool sync = false);

  // Group commit: logs the whole batch as one record, optionally syncs
  // (one append + one sync for the entire batch), then applies it through
  // the cube's batched write path. Durability is all-or-nothing for the
  // batch — after a crash, replay either re-applies every mutation of the
  // record or none. A malformed batch (cell arity != dims, or oversized)
  // is rejected up front: returns false, nothing logged or applied. For a
  // well-formed batch, returns false when logging (or the sync) failed;
  // the in-memory apply happens regardless, mirroring Add.
  //
  // A true return is the durability *ack*: the committed-prefix recovery
  // contract (DESIGN.md §11) promises every acked batch survives a crash.
  // The `wal.commit.acked` failpoint sits between the sync and the return
  // so crash harnesses can kill the process in the acked-but-unobserved
  // window.
  bool ApplyBatch(std::span<const Mutation> batch, bool sync = true);

  // Writes a snapshot and resets the log. Returns false on I/O failure.
  bool Checkpoint();

  // Re-roots (growth or shrink) of the wrapped cube since the last
  // checkpoint (or since recovery finished): the cube's ReRootEpoch() minus
  // the epoch recorded then. A re-root is a natural checkpoint trigger: the
  // in-memory tree was just rebuilt wholesale, so snapshotting now bounds
  // replay work after a crash.
  int64_t reroots_since_checkpoint() const {
    return cube_->ReRootEpoch() - checkpoint_epoch_;
  }

  // Checkpoints iff at least one re-root happened since the last
  // checkpoint. Call at a quiescent point (e.g. after ApplyBatch returns):
  // a checkpoint taken inside the re-root of a half-applied update would
  // snapshot pre-update state while resetting a log that already holds the
  // update's record — losing it. Returns false on I/O failure.
  bool CheckpointIfRerooted();

  // Records replayed from the log at construction (post-snapshot updates
  // that survived the last run).
  const ReplayResult& recovery() const { return recovery_; }

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& log_path() const { return log_path_; }

 private:
  std::string snapshot_path_;
  std::string log_path_;
  std::unique_ptr<DynamicDataCube> cube_;
  std::unique_ptr<CubeLog> log_;
  ReplayResult recovery_;
  // cube_->ReRootEpoch() after recovery or at the last checkpoint.
  int64_t checkpoint_epoch_ = 0;
};

}  // namespace ddc

#endif  // DDC_WAL_CUBE_LOG_H_
