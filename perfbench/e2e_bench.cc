// End-to-end statement benchmark: one statement at a time through
// parse -> executor -> query-result cache -> (shard hop) -> DdcCore descent
// -> B_c trees, plus the write-ahead log on the durable workload.
//
//   e2e_bench --workload hot_reports|durable_ingest|concurrent_mix
//             --seed N --seconds S --trace 0|1
//             [--statements N] [--corrupt-answer] [--work-dir DIR]
//
// A run executes a fixed budget of statements per client, sized from
// --seconds so that it takes about that long on a 4-thread host; equal
// work on every run keeps the cube's growth, the checkpoint count and so
// every count metric identical at one seed. --statements N sets the
// statements per client and phase directly; a phase cut short by its time
// cap fails the run. --trace 0 times kSetups set-ups, then runs the whole
// budget untraced on the last stack and prints the end-to-end metrics,
// latencies and rate taken over the run's fastest stretches. --trace 1 runs
// kTraceShare of the budget untraced, then traced (spans around every
// call the benchmark makes into the program, plus a forwarding
// CubeInterface decorator at the cache boundary), then with observability
// switched off, and prints the per-layer metrics. Every answer is checked
// against a NaiveCube oracle after the timed phase; --corrupt-answer flips
// one recorded answer first, so the run must fail. README.md in this
// directory documents the workloads and metrics.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cache/cached_cube.h"
#include "common/cube_interface.h"
#include "common/shape.h"
#include "concurrent/concurrent_cube.h"
#include "concurrent/sharded_cube.h"
#include "concurrent/sharded_cube_adapter.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/workload_recorder.h"
#include "query/executor.h"
#include "query/parser.h"
#include "span_stats.h"
#include "wal/cube_log.h"

namespace perfbench {
namespace {

using ddc::Box;
using ddc::Cell;
using ddc::Coord;
using ddc::Mutation;
using ddc::MutationBatch;
using ddc::QueryResult;
namespace obs = ddc::obs;

int64_t NowNs() { return static_cast<int64_t>(obs::NowNanos()); }

// ---------------------------------------------------------------------------
// Deterministic inputs.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {  // splitmix64
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return HashMix(HashMix(0x5eedull, seed), salt);
}

enum class Kind { kHotReports, kDurableIngest, kConcurrentMix };

struct Workload {
  Kind kind;
  const char* name;
  int dims;
  int64_t side;
  int64_t preload_cells;
  int clients;
  // Statements per second of --seconds, all clients together: the run's
  // fixed budget. Sized from rates measured on a 4-thread host.
  double budget_rate;
};

// concurrent_mix: client threads plus shard owner threads leave one
// hardware thread free (one client on a 4-thread host). With every CPU
// busy, a statement waits for a preempted owner or client at some hop, and
// the p99s followed the machine's load instead of the code.
constexpr int kShards = 2;
constexpr int kMaxClients = 2;
constexpr int kPoolSize = 512;          // hot_reports distinct reads.
constexpr double kZipfTheta = 1.2;
constexpr int kWarmupZipfReads = 4096;  // Builds the hot-range sketch.
constexpr int kPointsPerWrite = 32;
constexpr int kCheckpointEvery = 1024;  // durable_ingest write statements.
constexpr int64_t kConcurrentStreamLength = 32768;  // Per client, cycled.
// Timed set-ups per --trace 0 run, half before the phase, half after it.
constexpr int kSetups = 6;
// --trace 0 figures come from the least disturbed stretches of the run:
// series are cut into chunks of kChunkSamples statements, and the kKeepShare
// fastest chunks are kept, at least kMinPool statements of each kind (so
// that p99 has 10 samples beyond it).
constexpr size_t kChunkSamples = 100;
constexpr double kKeepShare = 0.25;
constexpr size_t kMinPool = 1000;
// A phase may run this many times its expected length before it fails.
constexpr double kCapFactor = 3;
// Share of the budget each --trace 1 phase runs.
constexpr double kTraceShare = 0.5;
// Share of the client-timed statement latency the traced root spans must
// cover.
constexpr double kMinCoveredShare = 0.9;
constexpr int kOracleSampleBoxes = 64;
constexpr size_t kAloneReplayStatements = 4096;
constexpr size_t kTraceDumpStatements = 20000;

Workload MakeWorkload(const std::string& name) {
  if (name == "hot_reports") {
    return {Kind::kHotReports, "hot_reports", 2, 2048, 250000, 1, 68000};
  }
  if (name == "durable_ingest") {
    // Side 64 at the density of side 128 with 50,000 cells: at side 128
    // the cube reached 1.6 GB and its timings spread by 0.2 to 0.3 of their
    // median across seeds, against about 0.1 here.
    return {Kind::kDurableIngest, "durable_ingest", 3, 64, 6250, 1, 600};
  }
  if (name == "concurrent_mix") {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return {Kind::kConcurrentMix, "concurrent_mix", 2, 1024, 200000,
            std::clamp(hw - kShards - 1, 1, kMaxClients), 7000};
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

// A read: SUM over `box`, grouped along d1 when group_size > 0.
struct ReadSpec {
  Box box;
  int64_t group_size = 0;
};

// One statement as the generator knows it, independent of the parser.
struct StmtSpec {
  bool write = false;
  int pool = -1;  // hot_reports: index of the pooled read.
  ReadSpec read;
  MutationBatch muts;
};

std::string JoinCell(const Cell& c) {
  std::string s;
  for (size_t i = 0; i < c.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(c[i]);
  }
  return s;
}

std::string RenderRead(const ReadSpec& r) {
  std::string s = "SUM";
  if (r.group_size > 0) s += " GROUP BY d1 SIZE " + std::to_string(r.group_size);
  for (size_t d = 0; d < r.box.lo.size(); ++d) {
    s += (d == 0 ? " WHERE d" : " AND d") + std::to_string(d) + " IN [" +
         std::to_string(r.box.lo[d]) + ", " + std::to_string(r.box.hi[d]) +
         "]";
  }
  return s;
}

std::string RenderWrite(const MutationBatch& muts) {
  std::string s = "ADD";
  for (size_t i = 0; i < muts.size(); ++i) {
    const Mutation& m = muts[i];
    s += i == 0 ? " " : ", ";
    if (m.is_range()) {
      s += std::to_string(m.delta) + " IN [" + JoinCell(m.cell) + " .. " +
           JoinCell(m.hi) + "]";
    } else {
      s += "AT [" + JoinCell(m.cell) + "] = " + std::to_string(m.delta);
    }
  }
  return s;
}

MutationBatch PreloadBatch(const Workload& w, uint64_t seed) {
  Rng rng(SubSeed(seed, 0));
  MutationBatch batch(static_cast<size_t>(w.preload_cells));
  for (Mutation& m : batch) {
    m.cell.resize(static_cast<size_t>(w.dims));
    for (Coord& c : m.cell) c = rng.Between(0, w.side - 1);
    m.delta = rng.Between(1, 100);
  }
  return batch;
}

// The statement source of one client: the same (workload, seed, client)
// always yields the same sequence. The oracle re-runs it instead of
// trusting the program's parser.
class StatementGen {
 public:
  StatementGen(const Workload& w, uint64_t seed, int client)
      : w_(w),
        rng_(SubSeed(seed, 100 + static_cast<uint64_t>(client))),
        warm_rng_(SubSeed(seed, 2)) {
    if (w.kind != Kind::kHotReports) return;
    Rng pool_rng(SubSeed(seed, 1));
    const int64_t min_len = std::llround(0.10 * static_cast<double>(w.side));
    const int64_t max_len = std::llround(0.25 * static_cast<double>(w.side));
    for (int i = 0; i < kPoolSize; ++i) {
      ReadSpec r;
      r.box.lo.resize(static_cast<size_t>(w.dims));
      r.box.hi.resize(static_cast<size_t>(w.dims));
      for (size_t d = 0; d < r.box.lo.size(); ++d) {
        const int64_t len = pool_rng.Between(min_len, max_len);
        r.box.lo[d] = pool_rng.Between(0, w.side - len);
        r.box.hi[d] = r.box.lo[d] + len - 1;
      }
      r.group_size = (i % 4 == 3) ? 64 : 0;
      pool_.push_back(std::move(r));
    }
    double total = 0;
    for (int r = 1; r <= kPoolSize; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfTheta);
      zipf_cdf_.push_back(total);
    }
  }

  const std::vector<ReadSpec>& pool() const { return pool_; }

  // hot_reports warm-up: a Zipf draw from a stream of its own.
  int WarmupPick() { return ZipfPick(warm_rng_.Unit()); }

  StmtSpec Next() {
    StmtSpec s;
    switch (w_.kind) {
      case Kind::kHotReports:
        if (rng_.Unit() < 0.05) {
          s.write = true;
          s.muts = PointAdds(1);
        } else {
          s.pool = ZipfPick(rng_.Unit());
          s.read = pool_[static_cast<size_t>(s.pool)];
        }
        break;
      case Kind::kDurableIngest:
        if (rng_.Unit() < 0.8) {
          s.write = true;
          if (++writes_ % 16 == 0) {
            s.muts.push_back(SmallRangeAdd());
          } else {
            s.muts = PointAdds(kPointsPerWrite);
          }
        } else {
          s.read = FreshBox(std::llround(0.2 * static_cast<double>(w_.side)));
        }
        break;
      case Kind::kConcurrentMix:
        if (rng_.Unit() < 0.5) {
          s.write = true;
          s.muts = PointAdds(kPointsPerWrite);
        } else {
          s.read.box =
              UniformBox(std::llround(0.1 * static_cast<double>(w_.side)));
        }
        break;
    }
    return s;
  }

 private:
  int ZipfPick(double u) const {
    const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                     u * zipf_cdf_.back());
    return std::min<int>(static_cast<int>(it - zipf_cdf_.begin()),
                         kPoolSize - 1);
  }

  MutationBatch PointAdds(int n) {
    MutationBatch muts(static_cast<size_t>(n));
    for (Mutation& m : muts) {
      m.cell.resize(static_cast<size_t>(w_.dims));
      for (Coord& c : m.cell) c = rng_.Between(0, w_.side - 1);
      m.delta = rng_.Between(1, 100);
    }
    return muts;
  }

  Mutation SmallRangeAdd() {
    Cell lo(static_cast<size_t>(w_.dims));
    Cell hi(static_cast<size_t>(w_.dims));
    for (size_t d = 0; d < lo.size(); ++d) {
      const int64_t len = rng_.Between(6, 10);
      lo[d] = rng_.Between(0, w_.side - len);
      hi[d] = lo[d] + len - 1;
    }
    return ddc::MakeRangeAdd(std::move(lo), std::move(hi),
                             rng_.Between(1, 100));
  }

  Box UniformBox(int64_t len) {
    Box b;
    b.lo.resize(static_cast<size_t>(w_.dims));
    b.hi.resize(static_cast<size_t>(w_.dims));
    for (size_t d = 0; d < b.lo.size(); ++d) {
      b.lo[d] = rng_.Between(0, w_.side - len);
      b.hi[d] = b.lo[d] + len - 1;
    }
    return b;
  }

  // A box never drawn before by this generator, so the read misses the
  // cache.
  ReadSpec FreshBox(int64_t len) {
    for (int attempt = 0; attempt < 100000; ++attempt) {
      ReadSpec r;
      r.box = UniformBox(len);
      uint64_t key = 0;
      for (Coord c : r.box.lo) key = HashMix(key, static_cast<uint64_t>(c));
      if (seen_reads_.insert(key).second) return r;
    }
    std::fprintf(stderr, "too many statements: no unread box is left\n");
    std::exit(2);
  }

  const Workload& w_;
  Rng rng_;
  Rng warm_rng_;
  std::vector<ReadSpec> pool_;
  std::vector<double> zipf_cdf_;
  int64_t writes_ = 0;
  std::unordered_set<uint64_t> seen_reads_;
};

// Pre-generated statement text of one client.
struct ClientStream {
  std::vector<std::string> texts;  // Distinct statement texts.
  // Statement i runs texts[order[i % order.size()]]; only concurrent_mix
  // clients run past the end and wrap around.
  std::vector<uint32_t> order;

  size_t size() const { return order.size(); }
  const std::string& Text(int64_t i) const {
    const size_t k = static_cast<size_t>(i) % order.size();
    return texts[order[k]];
  }
};

// Every write stays inside the initial domain [0, side)^d, so no cube ever
// re-roots and no batch escapes the cache's domain snapshot. The traced
// stacks build their cache over a TracingCube, which has no re-root hook;
// this keeps them equivalent to the untraced ones.
bool InDomain(const Workload& w, const MutationBatch& muts) {
  for (const Mutation& m : muts) {
    for (size_t d = 0; d < m.cell.size(); ++d) {
      const Coord hi = m.is_range() ? m.hi[d] : m.cell[d];
      if (m.cell[d] < 0 || hi >= w.side) return false;
    }
  }
  return true;
}

ClientStream BuildStream(const Workload& w, uint64_t seed, int client,
                         size_t length) {
  StatementGen gen(w, seed, client);
  ClientStream s;
  for (const ReadSpec& r : gen.pool()) s.texts.push_back(RenderRead(r));
  s.order.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    StmtSpec spec = gen.Next();
    if (!InDomain(w, spec.muts)) {
      std::fprintf(stderr, "generator wrote outside the initial domain\n");
      std::exit(2);
    }
    if (spec.pool >= 0) {
      s.order.push_back(static_cast<uint32_t>(spec.pool));
      continue;
    }
    s.texts.push_back(spec.write ? RenderWrite(spec.muts)
                                 : RenderRead(spec.read));
    s.order.push_back(static_cast<uint32_t>(s.texts.size() - 1));
  }
  return s;
}

uint64_t StreamDigest(const std::vector<ClientStream>& streams) {
  uint64_t h = 0;
  for (const ClientStream& s : streams) {
    for (uint32_t k : s.order) {
      for (char c : s.texts[k]) h = HashMix(h, static_cast<uint8_t>(c));
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Answers. A read's rows fold into one hash; the oracle hashes its own rows
// the same way.

struct Row {
  Coord start;
  Coord end;
  int64_t sum;
};

uint64_t RowsHash(std::span<const Row> rows) {
  uint64_t h = HashMix(0x7e57ull, rows.size());
  for (const Row& r : rows) {
    h = HashMix(h, static_cast<uint64_t>(r.start));
    h = HashMix(h, static_cast<uint64_t>(r.end));
    h = HashMix(h, static_cast<uint64_t>(r.sum));
  }
  return h;
}

uint64_t ResultHash(const QueryResult& result) {
  std::vector<Row> rows;
  rows.reserve(result.rows.size());
  for (const ddc::QueryResultRow& r : result.rows) {
    rows.push_back({r.group_start, r.group_end, r.sum});
  }
  return RowsHash(rows);
}

// The rows the executor must return for `r`: one row spanning dimension 0,
// or one row per 64-aligned slice of dimension 1.
std::vector<Row> ExpectedRows(const ReadSpec& r,
                              const std::function<int64_t(const Box&)>& sum) {
  if (r.group_size == 0) return {{r.box.lo[0], r.box.hi[0], sum(r.box)}};
  std::vector<Row> rows;
  const int64_t size = r.group_size;
  for (Coord g = (r.box.lo[1] / size) * size; g <= r.box.hi[1]; g += size) {
    Box slice = r.box;
    slice.lo[1] = std::max(r.box.lo[1], g);
    slice.hi[1] = std::min(r.box.hi[1], g + size - 1);
    rows.push_back({slice.lo[1], slice.hi[1], sum(slice)});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's side of every call.

enum SpanName : uint8_t {
  kStmtRead,
  kStmtWrite,
  kParse,
  kExecRead,
  kExecWrite,
  kCacheWrite,     // CachedCube::ApplyBatch (invalidate + backing apply).
  kInvalidate,     // CachedCube::InvalidateBatch.
  kDurableApply,   // DurableCube::ApplyBatch (WAL append + sync + apply).
  kCheckpoint,     // DurableCube::Checkpoint.
  kBackingRead,    // Below the cache: RangeSum(Batch)/Get/PrefixSum.
  kBackingWrite,   // Below the cache: ApplyBatch and point/range writes.
  kBackingMeta,    // Below the cache: DomainLo/DomainHi.
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "stmt.read",       "stmt.write",     "query.parse",
    "query.exec_read", "query.exec_write", "cache.write",
    "cache.invalidate_batch", "durable.apply_batch", "durable.checkpoint",
    "backing.read",    "backing.write",  "backing.meta"};

// Adds the counts of one statement's ledger into a running total.
void Accumulate(obs::CostLedger* total, const obs::CostLedger& l) {
  total->nodes_visited += l.nodes_visited;
  total->values_read += l.values_read;
  total->values_written += l.values_written;
  total->face_lookups += l.face_lookups;
  total->corner_terms += l.corner_terms;
  total->corners_deduped += l.corners_deduped;
  total->unique_corners += l.unique_corners;
  total->shard_groups += l.shard_groups;
  total->cache_probes += l.cache_probes;
  total->cache_hits += l.cache_hits;
}

// One client thread's spans. Each statement's spans are contiguous, root
// first; Span::parent indexes within the statement.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<size_t> stmt_begin;
  // Per statement: the client's own start and end clock reads, taken
  // outside every span (and around the ledger bookkeeping).
  std::vector<std::pair<int64_t, int64_t>> client_interval;
  int32_t current = -1;
  obs::CostLedger read_ledger;
  obs::CostLedger write_ledger;
  // durable_ingest: DurableCube::ApplyBatch span minus the WAL append and
  // sync time the registry recorded inside it.
  std::vector<int64_t> ddc_write_ns;

  void BeginStatement() {
    stmt_begin.push_back(spans.size());
    current = -1;
  }
};

thread_local ThreadTrace* t_trace = nullptr;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : trace_(t_trace) {
    if (trace_ == nullptr) return;
    base_ = trace_->stmt_begin.back();
    index_ = static_cast<int32_t>(trace_->spans.size() - base_);
    parent_ = trace_->current;
    Span s;
    s.name = name;
    s.parent = parent_;
    s.stmt = static_cast<uint32_t>(trace_->stmt_begin.size() - 1);
    trace_->spans.push_back(s);
    trace_->current = index_;
    trace_->spans.back().start_ns = NowNs();
  }
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span now; returns its duration (0 when not tracing).
  int64_t Close() {
    if (trace_ == nullptr) return 0;
    Span& s = trace_->spans[base_ + static_cast<size_t>(index_)];
    s.end_ns = NowNs();
    trace_->current = parent_;
    trace_ = nullptr;
    return s.duration();
  }

  void Rename(SpanName name) {
    if (trace_ != nullptr) {
      trace_->spans[base_ + static_cast<size_t>(index_)].name = name;
    }
  }

 private:
  ThreadTrace* trace_;
  size_t base_ = 0;
  int32_t index_ = 0;
  int32_t parent_ = -1;
};

// Forwarding decorator: every call goes to `inner` unchanged, inside a
// span, so the time spent below a layer boundary is measured from outside.
class TracingCube final : public ddc::CubeInterface {
 public:
  TracingCube(ddc::CubeInterface* inner, SpanName read, SpanName write,
              SpanName meta)
      : inner_(inner), read_(read), write_(write), meta_(meta) {}

  int dims() const override { return inner_->dims(); }
  Cell DomainLo() const override {
    ScopedSpan s(meta_);
    return inner_->DomainLo();
  }
  Cell DomainHi() const override {
    ScopedSpan s(meta_);
    return inner_->DomainHi();
  }
  void Set(const Cell& cell, int64_t value) override {
    ScopedSpan s(write_);
    inner_->Set(cell, value);
  }
  void Add(const Cell& cell, int64_t delta) override {
    ScopedSpan s(write_);
    inner_->Add(cell, delta);
  }
  int64_t Get(const Cell& cell) const override {
    ScopedSpan s(read_);
    return inner_->Get(cell);
  }
  void RangeAdd(const Box& box, int64_t delta) override {
    ScopedSpan s(write_);
    inner_->RangeAdd(box, delta);
  }
  void RangeSet(const Box& box, int64_t value) override {
    ScopedSpan s(write_);
    inner_->RangeSet(box, value);
  }
  bool ApplyBatch(std::span<const Mutation> batch) override {
    ScopedSpan s(write_);
    return inner_->ApplyBatch(batch);
  }
  int64_t PrefixSum(const Cell& cell) const override {
    ScopedSpan s(read_);
    return inner_->PrefixSum(cell);
  }
  int64_t RangeSum(const Box& box) const override {
    ScopedSpan s(read_);
    return inner_->RangeSum(box);
  }
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override {
    ScopedSpan s(read_);
    inner_->RangeSumBatch(ranges, out);
  }
  int64_t StorageCells() const override { return inner_->StorageCells(); }
  std::string name() const override { return inner_->name(); }

 private:
  ddc::CubeInterface* inner_;
  SpanName read_;
  SpanName write_;
  SpanName meta_;
};

obs::Histogram& RegistryHist(const char* name) {
  return *obs::MetricsRegistry::Default().GetHistogram(name);
}

int64_t WalNs() {
  static obs::Histogram& append = RegistryHist("wal.append.ns");
  static obs::Histogram& sync = RegistryHist("wal.sync.ns");
  return append.Sum() + sync.Sum();
}

// ---------------------------------------------------------------------------
// The stacks under test.

class Stack {
 public:
  virtual ~Stack() = default;
  // Runs one statement. Under tracing, `root` is the statement's span and
  // is renamed to kStmtWrite for writes.
  virtual QueryResult Run(const std::string& text, ScopedSpan& root) = 0;
  virtual void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const = 0;
  virtual int64_t StorageCells() const = 0;
  virtual ddc::CacheStats CacheStats() const = 0;
  // Bytes appended to the write-ahead log since set-up.
  virtual int64_t LogBytes() const { return 0; }
};

// Parses inside a span; on failure fills *error.
std::optional<ddc::Statement> Parse(const std::string& text,
                                    QueryResult* error) {
  ScopedSpan span(kParse);
  std::string message;
  std::optional<ddc::Statement> st = ddc::ParseStatement(text, &message);
  if (!st.has_value()) error->error = "parse error: " + message;
  return st;
}

// hot_reports: CachedCube over DynamicDataCube, driven through
// RunStatement. The traced stack runs what RunStatement runs (parse, then
// ExecuteQuery / ExecuteWrite) so each call gets its own span; it skips
// RunStatement's flight-recorder record.
class HotStack final : public Stack {
 public:
  HotStack(const Workload& w, bool traced)
      : traced_(traced),
        ddc_(w.dims, w.side),
        lower_(&ddc_, kBackingRead, kBackingWrite, kBackingMeta) {
    cache_ = traced ? std::make_unique<ddc::CachedCube>(
                          static_cast<ddc::CubeInterface*>(&lower_))
                    : std::make_unique<ddc::CachedCube>(&ddc_);
    upper_ = std::make_unique<TracingCube>(cache_.get(), kCacheWrite,
                                           kCacheWrite, kCacheWrite);
  }

  void Load(const MutationBatch& preload,
            const std::vector<std::string>& warmup) {
    ddc_.ApplyBatch(preload);
    for (const std::string& text : warmup) {
      ScopedSpan root(kStmtRead);
      Run(text, root);
    }
    cache_->AdoptHotRanges();
  }

  QueryResult Run(const std::string& text, ScopedSpan& root) override {
    if (!traced_) return ddc::RunStatement(text, cache_.get());
    QueryResult result;
    std::optional<ddc::Statement> st = Parse(text, &result);
    if (!st.has_value()) return result;
    if (st->write.has_value()) {
      root.Rename(kStmtWrite);
      ScopedSpan exec(kExecWrite);
      return ddc::ExecuteWrite(*st->write, upper_.get());
    }
    ScopedSpan exec(kExecRead);
    return ddc::ExecuteQuery(*st->query, *cache_);
  }

  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const override {
    ddc_.ForEachNonZero(fn);
  }
  int64_t StorageCells() const override { return ddc_.StorageCells(); }
  ddc::CacheStats CacheStats() const override { return cache_->Stats(); }

 private:
  bool traced_;
  ddc::DynamicDataCube ddc_;
  TracingCube lower_;
  std::unique_ptr<ddc::CachedCube> cache_;
  std::unique_ptr<TracingCube> upper_;
};

// durable_ingest: reads through CachedCube over the DurableCube's
// DynamicDataCube; writes run InvalidateBatch, then DurableCube::ApplyBatch
// with one sync per statement, and every 1024th write statement checkpoints
// on the client thread.
class DurableStack final : public Stack {
 public:
  DurableStack(const Workload& w, bool traced, const std::string& base)
      : traced_(traced),
        durable_(w.dims, w.side, base),
        lower_(&durable_.cube(), kBackingRead, kBackingWrite, kBackingMeta) {
    cache_ = traced ? std::make_unique<ddc::CachedCube>(
                          static_cast<ddc::CubeInterface*>(&lower_))
                    : std::make_unique<ddc::CachedCube>(&durable_.cube());
  }

  bool Load(const MutationBatch& preload) {
    if (!durable_.durable()) return false;
    durable_.cube().ApplyBatch(preload);
    if (!durable_.Checkpoint()) return false;
    log_base_ = LogSize();
    return true;
  }

  QueryResult Run(const std::string& text, ScopedSpan& root) override {
    QueryResult result;
    std::optional<ddc::Statement> st = Parse(text, &result);
    if (!st.has_value()) return result;
    if (st->query.has_value()) {
      ScopedSpan exec(kExecRead);
      return ddc::ExecuteQuery(*st->query, *cache_);
    }
    root.Rename(kStmtWrite);
    const MutationBatch& muts = st->write->mutations;
    result.is_write = true;
    {
      ScopedSpan exec(kExecWrite);
      {
        ScopedSpan invalidate(kInvalidate);
        cache_->InvalidateBatch(muts);
      }
      const int64_t wal_before = traced_ ? WalNs() : 0;
      ScopedSpan apply(kDurableApply);
      result.ok = durable_.ApplyBatch(muts, /*sync=*/true);
      const int64_t apply_ns = apply.Close();
      if (traced_ && t_trace != nullptr) {
        t_trace->ddc_write_ns.push_back(apply_ns - (WalNs() - wal_before));
      }
    }
    result.mutations_applied = static_cast<int64_t>(muts.size());
    if (!result.ok) result.error = "durable apply failed";
    if (++writes_ % kCheckpointEvery == 0) {
      logged_bytes_ += LogSize() - log_base_;
      ScopedSpan checkpoint(kCheckpoint);
      if (!durable_.Checkpoint()) {
        result.ok = false;
        result.error = "checkpoint failed";
      }
      log_base_ = LogSize();
    }
    return result;
  }

  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const override {
    durable_.cube().ForEachNonZero(fn);
  }
  int64_t StorageCells() const override {
    return durable_.cube().StorageCells();
  }
  ddc::CacheStats CacheStats() const override { return cache_->Stats(); }
  int64_t LogBytes() const override {
    return logged_bytes_ + LogSize() - log_base_;
  }

 private:
  int64_t LogSize() const {
    std::error_code ec;
    const auto size = std::filesystem::file_size(durable_.log_path(), ec);
    return ec ? 0 : static_cast<int64_t>(size);
  }

  bool traced_;
  ddc::DurableCube durable_;
  TracingCube lower_;
  std::unique_ptr<ddc::CachedCube> cache_;
  int64_t writes_ = 0;
  int64_t log_base_ = 0;
  int64_t logged_bytes_ = 0;
};

// concurrent_mix: ParseStatement + ExecuteWrite / ExecuteQuery over
// CachedCube over ShardedCube, from several client threads.
class ConcurrentStack final : public Stack {
 public:
  ConcurrentStack(const Workload& w, bool traced)
      : traced_(traced),
        sharded_(w.dims, w.side, kShards),
        adapter_(&sharded_),
        lower_(&adapter_, kBackingRead, kBackingWrite, kBackingMeta) {
    cache_ = traced ? std::make_unique<ddc::CachedCube>(
                          static_cast<ddc::CubeInterface*>(&lower_))
                    : std::make_unique<ddc::CachedCube>(&sharded_);
    upper_ = std::make_unique<TracingCube>(cache_.get(), kCacheWrite,
                                           kCacheWrite, kCacheWrite);
  }

  void Load(const MutationBatch& preload) { sharded_.ApplyBatch(preload); }

  QueryResult Run(const std::string& text, ScopedSpan& root) override {
    QueryResult result;
    std::optional<ddc::Statement> st = Parse(text, &result);
    if (!st.has_value()) return result;
    if (st->write.has_value()) {
      root.Rename(kStmtWrite);
      ScopedSpan exec(kExecWrite);
      return ddc::ExecuteWrite(*st->write, traced_
                                               ? static_cast<ddc::CubeInterface*>(
                                                     upper_.get())
                                               : cache_.get());
    }
    ScopedSpan exec(kExecRead);
    return ddc::ExecuteQuery(*st->query, *cache_);
  }

  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const override {
    sharded_.ForEachNonZero(fn);
  }
  int64_t StorageCells() const override { return sharded_.StorageCells(); }
  ddc::CacheStats CacheStats() const override { return cache_->Stats(); }

 private:
  bool traced_;
  ddc::ShardedCube sharded_;
  ddc::ShardedCubeAdapter adapter_;
  TracingCube lower_;
  std::unique_ptr<ddc::CachedCube> cache_;
  std::unique_ptr<TracingCube> upper_;
};

// Everything a stack is built from, generated once per process.
struct Inputs {
  Workload w;
  uint64_t seed;
  MutationBatch preload;
  std::vector<std::string> warmup;  // hot_reports only.
  std::vector<ClientStream> streams;
  std::string work_dir;
  // Statements per client in the --trace 0 phase.
  int64_t budget = 0;
};

std::unique_ptr<Stack> BuildStack(const Inputs& in, bool traced,
                                  const std::string& dir) {
  obs::WorkloadRecorder::Default().Reset();
  switch (in.w.kind) {
    case Kind::kHotReports: {
      auto stack = std::make_unique<HotStack>(in.w, traced);
      stack->Load(in.preload, in.warmup);
      return stack;
    }
    case Kind::kDurableIngest: {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      auto stack =
          std::make_unique<DurableStack>(in.w, traced, dir + "/ingest");
      if (!stack->Load(in.preload)) {
        std::fprintf(stderr, "durable set-up failed under %s\n", dir.c_str());
        std::exit(1);
      }
      return stack;
    }
    case Kind::kConcurrentMix: {
      auto stack = std::make_unique<ConcurrentStack>(in.w, traced);
      stack->Load(in.preload);
      return stack;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Running a phase.

struct ClientLog {
  int64_t executed = 0;
  int64_t not_ok = 0;
  int64_t mutations = 0;
  std::vector<uint64_t> hashes;  // Per statement: read hash, 0 for writes.
  std::vector<int64_t> read_ns;
  std::vector<int64_t> write_ns;
  // Clock reads at which each read and write completed.
  std::vector<int64_t> read_end_ns;
  std::vector<int64_t> write_end_ns;
  ThreadTrace trace;
};

// A phase runs a fixed number of statements per client, so a run's work
// (and the cube's end state) does not depend on how fast it went. The time
// cap stops a build far slower than the budget assumed; the run then fails
// (PhaseProblem).
struct Phase {
  std::vector<int64_t> counts;  // Statements per client.
  double cap_seconds = 0;
  bool traced = false;
  bool obs_off = false;
};

struct RegistrySnapshot {
  int64_t wal_append_sum = 0, wal_append_count = 0;
  int64_t wal_sync_sum = 0, wal_sync_count = 0;
  int64_t run_sum = 0, run_count = 0;
  int64_t wait_sum = 0, wait_count = 0;
  int64_t stalls = 0;

  static RegistrySnapshot Take() {
    RegistrySnapshot s;
    obs::Histogram& append = RegistryHist("wal.append.ns");
    obs::Histogram& sync = RegistryHist("wal.sync.ns");
    obs::Histogram& run = RegistryHist("sharded.mailbox.run_ns");
    obs::Histogram& wait = RegistryHist("sharded.mailbox.wait_ns");
    s.wal_append_sum = append.Sum();
    s.wal_append_count = append.Count();
    s.wal_sync_sum = sync.Sum();
    s.wal_sync_count = sync.Count();
    s.run_sum = run.Sum();
    s.run_count = run.Count();
    s.wait_sum = wait.Sum();
    s.wait_count = wait.Count();
    s.stalls = obs::MetricsRegistry::Default()
                   .GetCounter("sharded.mailbox.stalls")
                   ->Value();
    return s;
  }
};

struct PhaseResult {
  std::vector<ClientLog> clients;
  int64_t elapsed_ns = 0;
  ddc::CacheStats cache_before;
  ddc::CacheStats cache_after;
  RegistrySnapshot reg_before;
  RegistrySnapshot reg_after;
  int64_t log_bytes = 0;
  bool capped = false;  // The time cap stopped a client early.

  int64_t Attempted() const {
    int64_t n = 0;
    for (const ClientLog& c : clients) n += c.executed;
    return n;
  }
  int64_t NotOk() const {
    int64_t n = 0;
    for (const ClientLog& c : clients) n += c.not_ok;
    return n;
  }
  std::vector<int64_t> Counts() const {
    std::vector<int64_t> counts;
    for (const ClientLog& c : clients) counts.push_back(c.executed);
    return counts;
  }
  // Statements completed per second over the whole phase, all clients.
  double Rate() const {
    return elapsed_ns > 0 ? static_cast<double>(Attempted()) * 1e9 /
                                static_cast<double>(elapsed_ns)
                          : 0;
  }
};

void RunClient(Stack& stack, const ClientStream& stream, const Phase& phase,
               int client, int64_t deadline_ns, ClientLog* log) {
  const int64_t limit = phase.counts[static_cast<size_t>(client)];
  const size_t expect = static_cast<size_t>(limit);
  log->hashes.reserve(expect);
  log->read_ns.reserve(expect);
  log->read_end_ns.reserve(expect);
  if (phase.traced) {
    log->trace.spans.reserve(expect * 6);
    log->trace.stmt_begin.reserve(expect);
    log->trace.client_interval.reserve(expect);
  }
  t_trace = phase.traced ? &log->trace : nullptr;
  for (int64_t i = 0; i < limit; ++i) {
    const std::string& text = stream.Text(i);
    const int64_t t0 = NowNs();
    if (t0 >= deadline_ns) break;
    QueryResult r;
    if (phase.traced) {
      log->trace.BeginStatement();
      obs::CostLedger ledger;
      {
        obs::ScopedCostLedger scope(&ledger);
        ScopedSpan root(kStmtRead);
        r = stack.Run(text, root);
      }
      Accumulate(r.is_write ? &log->trace.write_ledger
                            : &log->trace.read_ledger,
                 ledger);
    } else {
      ScopedSpan root(kStmtRead);
      r = stack.Run(text, root);
    }
    const int64_t t1 = NowNs();
    if (phase.traced) log->trace.client_interval.emplace_back(t0, t1);
    ++log->executed;
    if (!r.ok) ++log->not_ok;
    if (r.is_write) {
      log->write_ns.push_back(t1 - t0);
      log->write_end_ns.push_back(t1);
      log->hashes.push_back(0);
      log->mutations += r.mutations_applied;
    } else {
      log->read_ns.push_back(t1 - t0);
      log->read_end_ns.push_back(t1);
      log->hashes.push_back(ResultHash(r));
    }
  }
  t_trace = nullptr;
}

PhaseResult RunPhase(const Inputs& in, Stack& stack, const Phase& phase) {
  PhaseResult res;
  const size_t clients = in.streams.size();
  res.clients.resize(clients);
  res.cache_before = stack.CacheStats();
  res.reg_before = RegistrySnapshot::Take();
  const int64_t log_before = stack.LogBytes();
  if (phase.obs_off) obs::SetEnabled(false);
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(phase.cap_seconds * 1e9);
  if (clients == 1) {
    RunClient(stack, in.streams[0], phase, 0, deadline, &res.clients[0]);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(stack, in.streams[c], phase, static_cast<int>(c), deadline,
                  &res.clients[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  res.elapsed_ns = NowNs() - start;
  if (phase.obs_off) obs::SetEnabled(true);
  res.reg_after = RegistrySnapshot::Take();
  res.cache_after = stack.CacheStats();
  res.log_bytes = stack.LogBytes() - log_before;
  res.capped = res.Counts() != phase.counts;
  return res;
}

// Why a phase's figures cannot be used, or "" if they can. A capped phase
// did less work and ended on another cube than its budget says. A cache
// flush means a re-root or a domain escape, which the traced stacks would
// not see (InDomain).
std::string PhaseProblem(const Phase& phase, const PhaseResult& res) {
  if (res.capped) {
    char cap[32];
    std::snprintf(cap, sizeof(cap), "%.3g", phase.cap_seconds);
    return std::string("the ") + cap +
           " s cap stopped the phase before its statement budget";
  }
  if (res.cache_after.flushes != res.cache_before.flushes) {
    return "the result cache was flushed (re-root or domain escape)";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Oracle: replays the generator's statements into a NaiveCube, off the
// clock.

struct Verdict {
  int64_t mismatches = 0;
  int64_t nonzero_cells = 0;
  uint64_t state_digest = 0;  // Order-independent digest of the end state.
  std::string first_problem;

  void Fail(const std::string& what) {
    if (mismatches++ == 0) first_problem = what;
  }
};

// Compares the stack's end state with the oracle's, cell by cell.
void CompareState(const Stack& stack, const ddc::NaiveCube& naive,
                  const Workload& w, Verdict* v) {
  int64_t wrong = 0;
  const ddc::Shape shape = ddc::Shape::Cube(w.dims, w.side);
  stack.ForEachNonZero([&](const Cell& cell, int64_t value) {
    ++v->nonzero_cells;
    uint64_t h = HashMix(0xce11ull, static_cast<uint64_t>(value));
    for (Coord c : cell) h = HashMix(h, static_cast<uint64_t>(c));
    v->state_digest += h;
    if (!shape.Contains(cell) || naive.array().at(cell) != value) ++wrong;
  });
  int64_t naive_nonzero = 0;
  const int64_t* data = naive.array().data();
  for (int64_t i = 0; i < naive.array().size(); ++i) {
    naive_nonzero += data[i] != 0;
  }
  if (wrong != 0 || naive_nonzero != v->nonzero_cells) {
    v->Fail("end state differs from the oracle: " + std::to_string(wrong) +
            " wrong cells, " + std::to_string(v->nonzero_cells) + " vs " +
            std::to_string(naive_nonzero) + " nonzero cells");
  }
}

Verdict VerifySingleClient(const Inputs& in, const PhaseResult& phase,
                           const Stack& stack, bool corrupt) {
  const Workload& w = in.w;
  Verdict v;
  ddc::NaiveCube naive(ddc::Shape::Cube(w.dims, w.side));
  naive.ApplyBatch(in.preload);
  auto sum = [&naive](const Box& b) { return naive.RangeSum(b); };
  StatementGen gen(w, in.seed, 0);
  const bool hot = w.kind == Kind::kHotReports;
  std::vector<std::vector<Row>> expected;
  if (hot) {
    for (const ReadSpec& r : gen.pool()) expected.push_back(ExpectedRows(r, sum));
  }
  const ClientLog& log = phase.clients[0];
  std::vector<uint64_t> hashes = log.hashes;
  if (corrupt) {
    for (size_t i = hashes.size() / 2; i < hashes.size(); ++i) {
      if (hashes[i] != 0) {
        hashes[i] ^= 1;
        break;
      }
    }
  }
  for (int64_t i = 0; i < log.executed; ++i) {
    const StmtSpec spec = gen.Next();
    if (spec.write) {
      naive.ApplyBatch(spec.muts);
      if (!hot) continue;
      // Fold each point into every pooled read whose box holds it.
      for (const Mutation& m : spec.muts) {
        for (size_t p = 0; p < gen.pool().size(); ++p) {
          const ReadSpec& r = gen.pool()[p];
          if (!r.box.Contains(m.cell)) continue;
          const size_t row =
              r.group_size == 0
                  ? 0
                  : static_cast<size_t>(m.cell[1] / r.group_size -
                                        r.box.lo[1] / r.group_size);
          expected[p][row].sum += m.delta;
        }
      }
      continue;
    }
    const uint64_t want =
        hot ? RowsHash(expected[static_cast<size_t>(spec.pool)])
            : RowsHash(ExpectedRows(spec.read, sum));
    if (hashes[static_cast<size_t>(i)] != want) {
      v.Fail("statement " + std::to_string(i) + " (" +
             in.streams[0].Text(i) + ") returned a wrong answer");
    }
  }
  if (hot) {
    // The patched expectations must equal a fresh scan of the replayed
    // state, or the oracle itself is wrong.
    for (size_t p = 0; p < gen.pool().size(); ++p) {
      if (RowsHash(ExpectedRows(gen.pool()[p], sum)) !=
          RowsHash(expected[p])) {
        v.Fail("oracle self-check failed for pooled read " +
               std::to_string(p));
      }
    }
  }
  CompareState(stack, naive, w, &v);
  return v;
}

// concurrent_mix interleaves clients, so single reads have no fixed
// expected answer. All writes are ADDs and commute: the end state must
// equal the preload plus every applied statement, and a fixed sample of
// reads through the full stack must match the oracle afterwards.
Verdict VerifyConcurrent(const Inputs& in, const PhaseResult& phase,
                         Stack& stack, bool corrupt) {
  const Workload& w = in.w;
  Verdict v;
  ddc::NaiveCube naive(ddc::Shape::Cube(w.dims, w.side));
  naive.ApplyBatch(in.preload);
  for (size_t c = 0; c < in.streams.size(); ++c) {
    StatementGen gen(w, in.seed, static_cast<int>(c));
    const int64_t n = phase.clients[c].executed;
    const int64_t len = static_cast<int64_t>(in.streams[c].size());
    for (int64_t i = 0; i < len; ++i) {
      const StmtSpec spec = gen.Next();
      const int64_t times = n / len + (i < n % len ? 1 : 0);
      if (!spec.write || times == 0) continue;
      for (const Mutation& m : spec.muts) naive.Add(m.cell, m.delta * times);
    }
  }
  CompareState(stack, naive, w, &v);
  Rng rng(SubSeed(in.seed, 999));
  const int64_t len = std::llround(0.1 * static_cast<double>(w.side));
  for (int k = 0; k < kOracleSampleBoxes; ++k) {
    ReadSpec r;
    r.box.lo.resize(static_cast<size_t>(w.dims));
    r.box.hi.resize(static_cast<size_t>(w.dims));
    for (size_t d = 0; d < r.box.lo.size(); ++d) {
      r.box.lo[d] = rng.Between(0, w.side - len);
      r.box.hi[d] = r.box.lo[d] + len - 1;
    }
    const std::string text = RenderRead(r);
    ScopedSpan root(kStmtRead);
    const QueryResult got = stack.Run(text, root);
    uint64_t h = ResultHash(got);
    if (corrupt && k == 0) h ^= 1;
    const uint64_t want = RowsHash(ExpectedRows(
        r, [&naive](const Box& b) { return naive.RangeSum(b); }));
    if (!got.ok || h != want) v.Fail("sampled read " + text + " is wrong");
  }
  return v;
}

Verdict Verify(const Inputs& in, const PhaseResult& phase, Stack& stack,
               bool corrupt) {
  return in.w.kind == Kind::kConcurrentMix
             ? VerifyConcurrent(in, phase, stack, corrupt)
             : VerifySingleClient(in, phase, stack, corrupt);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  int64_t statements = 0;
  bool corrupt = false;
  std::string work_dir = ".bench_build/work";
};

// Host and configuration, printed as a JSON line before the result line.
std::string ConfigJson(const Options& opt, const Inputs& in) {
#ifdef DDC_NATIVE_ENABLED
  const bool native = true;
#else
  const bool native = false;
#endif
#ifdef DDC_OBS_DISABLED
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
  std::string s = "{\"workload\": " + Quote(in.w.name) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + FormatNumber(opt.seconds) +
                  ", \"statements\": " + std::to_string(opt.statements) +
                  ", \"trace\": " + std::to_string(opt.trace) +
                  ", \"hardware_threads\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"client_threads\": " + std::to_string(in.w.clients) +
                  ", \"shards\": " +
                  std::to_string(in.w.kind == Kind::kConcurrentMix ? kShards
                                                                   : 0) +
                  ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                  ", \"ddc_native\": " + (native ? "true" : "false") +
                  ", \"obs_compiled\": " + (obs_compiled ? "true" : "false") +
                  ", \"obs_runtime\": " +
                  (obs::Enabled() ? "true" : "false") +
                  ", \"stream_digest\": \"" +
                  std::to_string(StreamDigest(in.streams)) + "\"}";
  return s;
}

void PrintResult(const std::string& config,
                 const std::vector<std::pair<std::string, int64_t>>& samples,
                 const std::string& extra, bool correct, int64_t attempted,
                 int64_t failed, const std::vector<Metric>& metrics) {
  std::string info = "{\"config\": " + config + ", \"samples\": {";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) info += ", ";
    info += Quote(samples[i].first) + ": " + std::to_string(samples[i].second);
  }
  info += "}" + extra + "}";
  std::printf("%s\n", info.c_str());
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

// Each CPU of the reference host (a virtual machine on a shared server)
// switches on its own, for seconds at a time, between its normal speed and
// one up to several times slower for cache-resident work: another machine
// runs on the same physical core. A run sees as many slow seconds as its
// CPU happens to get, so its plain percentiles and rate follow the
// neighbours. The --trace 0 figures therefore come from the fastest
// stretches of the run; a slower program slows every stretch.

// One statement kind's latencies, all clients, in completion order, pooled
// from the kKeepShare of its chunks of kChunkSamples with the lowest
// medians (FastestChunks).
std::vector<int64_t> FastPool(const PhaseResult& res, bool writes) {
  std::vector<std::pair<int64_t, int64_t>> samples;  // (end, latency)
  for (const ClientLog& c : res.clients) {
    const std::vector<int64_t>& lat = writes ? c.write_ns : c.read_ns;
    const std::vector<int64_t>& end = writes ? c.write_end_ns : c.read_end_ns;
    for (size_t i = 0; i < lat.size(); ++i) samples.emplace_back(end[i], lat[i]);
  }
  std::sort(samples.begin(), samples.end());
  std::vector<int64_t> lat;
  for (const auto& s : samples) lat.push_back(s.second);
  return FastestChunks(lat, kChunkSamples, kKeepShare, kMinPool);
}

// Statements per second, all clients: per client, its completions are cut
// into windows of kChunkSamples statements and the rate is that of the
// kKeepShare fastest windows. A window holding a durable_ingest checkpoint
// is never among them.
double FastRate(const PhaseResult& res) {
  double rate = 0;
  for (const ClientLog& c : res.clients) {
    std::vector<int64_t> end = c.read_end_ns;
    end.insert(end.end(), c.write_end_ns.begin(), c.write_end_ns.end());
    std::sort(end.begin(), end.end());
    const size_t k = end.empty() ? 0 : (end.size() - 1) / kChunkSamples;
    if (k == 0) continue;
    std::vector<int64_t> windows;
    for (size_t i = 0; i < k; ++i) {
      windows.push_back(end[(i + 1) * kChunkSamples] - end[i * kChunkSamples]);
    }
    std::sort(windows.begin(), windows.end());
    const size_t kept = std::clamp<size_t>(
        static_cast<size_t>(std::llround(kKeepShare * static_cast<double>(k))),
        1, k);
    int64_t ns = 0;
    for (size_t i = 0; i < kept; ++i) ns += windows[i];
    rate += static_cast<double>(kept * kChunkSamples) * 1e9 /
            static_cast<double>(std::max<int64_t>(ns, 1));
  }
  return rate;
}

// Builds and drops one stack, untimed, so that the measured set-ups and
// phases all run on a heap that already holds the memory they reuse (the
// first build in a process is about twice as slow).
void WarmUp(const Inputs& in) {
  BuildStack(in, /*traced=*/false, in.work_dir + "/warmup");
}

// Builds the stack kSetups / 2 times, runs the whole budget on the last
// one, reads the peak RSS and checks every answer with the oracle, then
// builds it kSetups / 2 more times; setup_s is the median of all of them,
// taken about --seconds apart, so that no single slow spell of the host
// sets it. Latencies and the rate come from the fastest stretches of the
// run (FastPool, FastRate).
int RunEndToEnd(const Options& opt, const Inputs& in) {
  WarmUp(in);
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  auto timed_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      stack.reset();  // Frees the memory and the durable files first.
      const int64_t t0 = NowNs();
      stack = BuildStack(in, /*traced=*/false, in.work_dir + "/rep");
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  };
  timed_setups(kSetups / 2);
  Phase phase;
  phase.counts.assign(in.streams.size(), in.budget);
  phase.cap_seconds = kCapFactor * opt.seconds;
  const PhaseResult res = RunPhase(in, *stack, phase);
  const std::string problem = PhaseProblem(phase, res);
  if (!problem.empty()) {
    std::fprintf(stderr, "FAILED: %s\n", problem.c_str());
    return 1;
  }
  const double rss_mb = PeakRssMb();  // Before any oracle memory exists.
  const Verdict verdict = Verify(in, res, *stack, opt.corrupt);
  const double stored_per_cell =
      Ratio(stack->StorageCells(), verdict.nonzero_cells);
  timed_setups(kSetups - kSetups / 2);
  stack.reset();
  const int64_t attempted = res.Attempted();
  const int64_t failed = res.NotOk() + verdict.mismatches;
  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "FAILED: %lld statement(s) not ok; oracle: %s\n",
                 static_cast<long long>(res.NotOk()),
                 verdict.first_problem.c_str());
  }

  std::vector<int64_t> reads = FastPool(res, /*writes=*/false);
  std::vector<int64_t> writes = FastPool(res, /*writes=*/true);
  struct Pct {
    const char* name;
    bool write;
    double q;
  };
  const Pct pcts[] = {{"read_p50_us", false, 0.5},
                      {"read_p99_us", false, 0.99},
                      {"write_p50_us", true, 0.5},
                      {"write_p99_us", true, 0.99}};
  std::vector<Metric> metrics = {{"setup_s", Median(setup_s), "s"}};
  // Per percentile the samples it was taken over and those beyond it.
  std::vector<std::pair<std::string, int64_t>> samples = {
      {"setup_s", kSetups}, {"statements", attempted}};
  for (const Pct& p : pcts) {
    std::vector<int64_t>& pool = p.write ? writes : reads;
    metrics.push_back({p.name, Us(ExactPercentile(pool, p.q)), "us"});
    const int64_t beyond = SamplesBeyond(pool.size(), p.q);
    samples.emplace_back(p.name, static_cast<int64_t>(pool.size()));
    samples.emplace_back(std::string(p.name) + "_beyond", beyond);
    if (p.q > 0.5 && beyond < 10) {
      std::fprintf(stderr, "warning: only %lld samples beyond %s\n",
                   static_cast<long long>(beyond), p.name);
    }
  }
  metrics.insert(metrics.end(),
                 {
                     {"stmts_per_s", FastRate(res), "1/s"},
                     {"peak_rss_mb", rss_mb, "MB"},
                     {"stored_values_per_cell", stored_per_cell, "values/cell"},
                     {"ok_rate", 1.0 - Ratio(failed, attempted), "ratio"},
                 });
  std::string setups;
  for (double s : setup_s) {
    setups += (setups.empty() ? "" : ", ") + FormatNumber(s);
  }
  const std::string extra =
      ", \"phase_s\": " +
      FormatNumber(static_cast<double>(res.elapsed_ns) / 1e9) +
      ", \"phase_stmts_per_s\": " + FormatNumber(res.Rate()) +
      ", \"setups_s\": [" + setups + "]";
  PrintResult(ConfigJson(opt, in), samples, extra, correct, attempted, failed,
              metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

// T clients replay the same parsed batches and boxes straight into one
// concurrent executor, with no parser, executor or cache above it.
struct ParsedStmt {
  MutationBatch muts;
  std::vector<Box> boxes;
};

template <typename CubeT>
double AloneRate(const Inputs& in,
                 const std::vector<std::vector<ParsedStmt>>& parsed,
                 double seconds, CubeT* cube, Verdict* v) {
  cube->ApplyBatch(in.preload);
  int64_t expected_total = 0;
  for (const Mutation& m : in.preload) expected_total += m.delta;
  std::vector<int64_t> done(parsed.size(), 0);
  std::vector<int64_t> added(parsed.size(), 0);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < parsed.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::vector<ParsedStmt>& mine = parsed[c];
      std::vector<int64_t> out;
      for (size_t i = 0; NowNs() < deadline; ++i) {
        const ParsedStmt& s = mine[i % mine.size()];
        if (!s.muts.empty()) {
          cube->ApplyBatch(s.muts);
          for (const Mutation& m : s.muts) added[c] += m.delta;
        } else {
          out.resize(s.boxes.size());
          cube->RangeSumBatch(s.boxes, out);
        }
        ++done[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t elapsed = NowNs() - start;
  int64_t total = 0;
  for (size_t c = 0; c < parsed.size(); ++c) {
    total += done[c];
    expected_total += added[c];
  }
  if (cube->TotalSum() != expected_total) {
    v->Fail("alone replay total differs from the applied deltas");
  }
  return static_cast<double>(total) * 1e9 / static_cast<double>(elapsed);
}

std::vector<std::vector<ParsedStmt>> ParseForReplay(const Inputs& in,
                                                    const PhaseResult& res) {
  std::vector<std::vector<ParsedStmt>> parsed(in.streams.size());
  for (size_t c = 0; c < in.streams.size(); ++c) {
    const int64_t n = std::min<int64_t>(
        std::max<int64_t>(res.clients[c].executed, 1),
        static_cast<int64_t>(kAloneReplayStatements));
    for (int64_t i = 0; i < n; ++i) {
      std::string error;
      std::optional<ddc::Statement> st =
          ddc::ParseStatement(in.streams[c].Text(i), &error);
      if (!st.has_value()) continue;
      ParsedStmt p;
      if (st->write.has_value()) {
        p.muts = st->write->mutations;
      } else {
        Box box{Cell(static_cast<size_t>(in.w.dims), 0),
                Cell(static_cast<size_t>(in.w.dims), in.w.side - 1)};
        for (const ddc::Predicate& pred : st->query->predicates) {
          box.lo[static_cast<size_t>(pred.dim)] = pred.lo;
          box.hi[static_cast<size_t>(pred.dim)] = pred.hi;
        }
        p.boxes.push_back(std::move(box));
      }
      parsed[c].push_back(std::move(p));
    }
  }
  return parsed;
}

void DumpTrace(const std::string& path, const PhaseResult& res) {
  std::ofstream out(path);
  out << "client\tstmt\tspan\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (size_t c = 0; c < res.clients.size(); ++c) {
    const ThreadTrace& t = res.clients[c].trace;
    const size_t n = std::min(t.stmt_begin.size(), kTraceDumpStatements);
    for (size_t s = 0; s < n; ++s) {
      const size_t b = t.stmt_begin[s];
      const size_t e =
          s + 1 < t.stmt_begin.size() ? t.stmt_begin[s + 1] : t.spans.size();
      const std::span<const Span> spans(t.spans.data() + b, e - b);
      const std::vector<int64_t> self = SelfTimes(spans);
      for (size_t k = 0; k < spans.size(); ++k) {
        out << c << '\t' << s << '\t' << k << '\t' << kSpanNames[spans[k].name]
            << '\t' << spans[k].parent << '\t' << spans[k].start_ns << '\t'
            << spans[k].end_ns << '\t' << self[k] << '\n';
      }
    }
  }
}

// Statements per client in each --trace 1 phase: --statements if given,
// else kTraceShare of the budget.
int64_t TracedBudget(const Options& opt, const Inputs& in) {
  if (opt.statements > 0) return in.budget;
  return std::max<int64_t>(
      1, std::llround(static_cast<double>(in.budget) * kTraceShare));
}

int RunTraced(const Options& opt, const Inputs& in) {
  const bool single = in.streams.size() == 1;
  int64_t failed = 0;
  std::string problem;
  auto fail = [&](const std::string& what, int64_t n = 1) {
    if (n == 0) return;
    if (failed == 0) problem = what;
    failed += n;
  };
  auto check = [&](const Verdict& v, const PhaseResult& r, const char* name) {
    fail(std::string(name) + ": statements not ok", r.NotOk());
    fail(std::string(name) + ": " + v.first_problem, v.mismatches);
  };

  // A: untraced. B: traced, same statement counts. C: observability off,
  // same counts. Equal counts make the three end states comparable, so a
  // phase that cannot finish its count within its cap fails the run.
  const double cap = kCapFactor * opt.seconds * kTraceShare;
  auto run = [&](const Phase& phase, const char* dir,
                 std::optional<PhaseResult>* out) {
    std::unique_ptr<Stack> stack =
        BuildStack(in, phase.traced, in.work_dir + "/" + dir);
    PhaseResult res = RunPhase(in, *stack, phase);
    const std::string why = PhaseProblem(phase, res);
    if (!why.empty()) {
      std::fprintf(stderr, "FAILED: %s phase: %s\n", dir, why.c_str());
      return Verdict{};
    }
    const Verdict v = Verify(in, res, *stack, opt.corrupt && !phase.traced &&
                                                  !phase.obs_off);
    check(v, res, dir);
    *out = std::move(res);
    return v;
  };
  WarmUp(in);
  Phase untraced;
  untraced.counts.assign(in.streams.size(), TracedBudget(opt, in));
  untraced.cap_seconds = cap;
  std::optional<PhaseResult> a;
  const Verdict va = run(untraced, "untraced", &a);
  if (!a) return 1;

  // Tracing and observability change the speed, so the same counts get a
  // looser cap.
  Phase traced;
  traced.counts = a->Counts();
  traced.cap_seconds = 1.5 * cap;
  traced.traced = true;
  std::optional<PhaseResult> b;
  const Verdict vb = run(traced, "traced", &b);
  if (!b) return 1;

  Phase obs_off;
  obs_off.counts = a->Counts();
  obs_off.cap_seconds = 1.5 * cap;
  obs_off.obs_off = true;
  std::optional<PhaseResult> c;
  const Verdict vc = run(obs_off, "obs_off", &c);
  if (!c) return 1;

  // The decorated stack must answer exactly like the plain one.
  if (vb.state_digest != va.state_digest ||
      vc.state_digest != va.state_digest) {
    fail("traced or obs-off end state differs from the untraced run");
  }
  if (single && (b->clients[0].hashes != a->clients[0].hashes ||
                 c->clients[0].hashes != a->clients[0].hashes)) {
    fail("traced or obs-off answers differ from the untraced run");
  }

  double sharded_alone = 0;
  double coarse_alone = 0;
  if (in.w.kind == Kind::kConcurrentMix) {
    const auto parsed = ParseForReplay(in, *a);
    const double replay_s = std::max(opt.seconds / 4, 0.5);
    Verdict v;
    {
      ddc::ShardedCube sharded(in.w.dims, in.w.side, kShards);
      sharded_alone = AloneRate(in, parsed, replay_s, &sharded, &v);
    }
    {
      ddc::ConcurrentCube coarse(in.w.dims, in.w.side);
      coarse_alone = AloneRate(in, parsed, replay_s, &coarse, &v);
    }
    if (v.mismatches != 0) fail(v.first_problem);
  }

  // Per-name durations and self times. Each statement's self times
  // partition its root span (SelfTimes); the root span in turn must lie
  // within the client's own clock reads for that statement and cover
  // nearly all of them, or the breakdown misses part of what the client
  // waited for.
  std::array<std::vector<int64_t>, kNumSpanNames> dur;
  std::array<std::vector<int64_t>, kNumSpanNames> self;
  std::array<std::array<int64_t, kNumSpanNames>, 2> self_sum{};
  std::array<int64_t, 2> root_sum{};
  std::array<int64_t, 2> client_sum{};
  std::array<int64_t, 2> stmt_count{};
  int64_t outside = 0;
  obs::CostLedger read_ledger;
  obs::CostLedger write_ledger;
  std::vector<int64_t> ddc_write_ns;
  int64_t mutations = 0;
  int64_t writes = 0;
  for (const ClientLog& log : b->clients) {
    const ThreadTrace& t = log.trace;
    Accumulate(&read_ledger, t.read_ledger);
    Accumulate(&write_ledger, t.write_ledger);
    mutations += log.mutations;
    writes += static_cast<int64_t>(log.write_ns.size());
    ddc_write_ns.insert(ddc_write_ns.end(), t.ddc_write_ns.begin(),
                        t.ddc_write_ns.end());
    for (size_t s = 0; s < t.stmt_begin.size(); ++s) {
      const size_t begin = t.stmt_begin[s];
      const size_t end =
          s + 1 < t.stmt_begin.size() ? t.stmt_begin[s + 1] : t.spans.size();
      const std::span<const Span> spans(t.spans.data() + begin, end - begin);
      const std::vector<int64_t> st = SelfTimes(spans);
      const int kind = spans[0].name == kStmtWrite ? 1 : 0;
      for (size_t k = 0; k < spans.size(); ++k) {
        dur[spans[k].name].push_back(spans[k].duration());
        self[spans[k].name].push_back(st[k]);
        self_sum[kind][spans[k].name] += st[k];
      }
      const auto [t0, t1] = t.client_interval[s];
      if (spans[0].start_ns < t0 || spans[0].end_ns > t1) ++outside;
      root_sum[kind] += spans[0].duration();
      client_sum[kind] += t1 - t0;
      ++stmt_count[kind];
    }
  }
  if (outside != 0) {
    fail(std::to_string(outside) +
         " statements whose traced span is not within the client's timing");
  }
  std::array<double, 2> covered{};
  for (int kind = 0; kind < 2; ++kind) {
    covered[kind] = Ratio(root_sum[kind], client_sum[kind]);
    if (stmt_count[kind] > 0 && covered[kind] < kMinCoveredShare) {
      fail(std::string(kind == 0 ? "read" : "write") +
           " spans cover only " + FormatNumber(covered[kind]) +
           " of the client-timed latency");
    }
  }

  const bool concurrent = in.w.kind == Kind::kConcurrentMix;
  const bool durable = in.w.kind == Kind::kDurableIngest;
  auto p50 = [](std::vector<int64_t> v) { return ExactPercentile(v, 0.5); };
  auto p99 = [](std::vector<int64_t> v) { return ExactPercentile(v, 0.99); };
  const int64_t backing_reads =
      static_cast<int64_t>(dur[kBackingRead].size());
  const int64_t statements = b->Attempted();
  std::vector<int64_t> shard_calls;
  if (concurrent) {
    for (SpanName n : {kBackingRead, kBackingWrite, kBackingMeta}) {
      shard_calls.insert(shard_calls.end(), dur[n].begin(), dur[n].end());
    }
  }
  const RegistrySnapshot& r0 = b->reg_before;
  const RegistrySnapshot& r1 = b->reg_after;
  const double untraced_rate = a->Rate();
  const double traced_rate = b->Rate();
  std::vector<Metric> metrics = {
      {"query.parse_us_p50", Us(p50(dur[kParse])), "us"},
      {"query.read_exec_self_us_p50", Us(p50(self[kExecRead])), "us"},
      {"query.write_exec_self_us_p50", Us(p50(self[kExecWrite])), "us"},
      {"cache.hit_ratio",
       Ratio(read_ledger.cache_hits, read_ledger.cache_probes), "ratio"},
      {"cache.invalidated_per_write",
       Ratio(b->cache_after.invalidated - b->cache_before.invalidated, writes),
       "count"},
      {"cache.patched_per_write",
       Ratio(b->cache_after.patched - b->cache_before.patched, writes), "count"},
      {"cache.invalidate_us_p50",
       Us(durable ? p50(dur[kInvalidate]) : p50(self[kCacheWrite])), "us"},
      {"ddc.read_us_p50", Us(p50(dur[kBackingRead])), "us"},
      {"ddc.read_us_p99", Us(p99(dur[kBackingRead])), "us"},
      {"ddc.unique_corners_per_read",
       Ratio(read_ledger.unique_corners, backing_reads), "count"},
      {"ddc.dedup_ratio",
       Ratio(read_ledger.corners_deduped, read_ledger.corner_terms), "ratio"},
      {"ddc.nodes_per_read", Ratio(read_ledger.nodes_visited, backing_reads),
       "count"},
      {"ddc.values_read_per_read",
       Ratio(read_ledger.values_read, backing_reads), "count"},
      {"ddc.write_us_p50",
       Us(durable ? p50(ddc_write_ns) : p50(dur[kBackingWrite])), "us"},
      {"ddc.values_written_per_mutation",
       Ratio(write_ledger.values_written, mutations), "count"},
      {"ddc.face_lookups_per_mutation",
       Ratio(write_ledger.face_lookups, mutations), "count"},
      {"wal.append_us_mean",
       Ratio(r1.wal_append_sum - r0.wal_append_sum,
             r1.wal_append_count - r0.wal_append_count) / 1e3,
       "us"},
      {"wal.sync_us_mean",
       Ratio(r1.wal_sync_sum - r0.wal_sync_sum,
             r1.wal_sync_count - r0.wal_sync_count) / 1e3,
       "us"},
      {"wal.bytes_per_mutation", Ratio(b->log_bytes, mutations), "B"},
      {"wal.checkpoint_ms_p50",
       static_cast<double>(p50(dur[kCheckpoint])) / 1e6, "ms"},
      {"shard.call_us_p50", Us(p50(shard_calls)), "us"},
      {"shard.owner_run_us_mean",
       Ratio(r1.run_sum - r0.run_sum, r1.run_count - r0.run_count) / 1e3,
       "us"},
      {"shard.queue_wait_us_mean",
       Ratio(r1.wait_sum - r0.wait_sum, r1.wait_count - r0.wait_count) / 1e3,
       "us"},
      {"shard.stalls_per_stmt", Ratio(r1.stalls - r0.stalls, statements),
       "count"},
      {"shard.groups_per_stmt",
       Ratio(read_ledger.shard_groups + write_ledger.shard_groups, statements),
       "count"},
      {"concurrent.sharded_alone_stmts_per_s", sharded_alone, "1/s"},
      {"concurrent.coarse_alone_stmts_per_s", coarse_alone, "1/s"},
      {"obs.off_stmts_per_s", c->Rate(), "1/s"},
      {"trace.overhead_frac",
       untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0, "ratio"},
  };

  std::filesystem::create_directories(in.work_dir);
  const std::string trace_path = in.work_dir + "/" + in.w.name + "-seed" +
                                 std::to_string(in.seed) + ".spans.tsv";
  DumpTrace(trace_path, *b);

  // Mean self time per layer and statement kind: the breakdown whose
  // columns add up to the statement's mean traced span, next to the mean
  // client-timed latency it covers.
  std::string extra = ", \"trace_file\": " + Quote(trace_path) +
                      ", \"phase_stmts_per_s\": {\"untraced\": " +
                      FormatNumber(untraced_rate) + ", \"traced\": " +
                      FormatNumber(traced_rate) + ", \"obs_off\": " +
                      FormatNumber(c->Rate()) + "}" +
                      ", \"self_us_mean\": {";
  for (int kind = 0; kind < 2; ++kind) {
    if (kind > 0) extra += ", ";
    const double n = static_cast<double>(std::max<int64_t>(stmt_count[kind], 1));
    extra += std::string(kind == 0 ? "\"read\"" : "\"write\"") +
             ": {\"statements\": " + std::to_string(stmt_count[kind]) +
             ", \"client\": " +
             FormatNumber(static_cast<double>(client_sum[kind]) / n / 1e3) +
             ", \"covered\": " + FormatNumber(covered[kind]) +
             ", \"stmt_span\": " +
             FormatNumber(static_cast<double>(root_sum[kind]) / n / 1e3);
    for (int k = 0; k < kNumSpanNames; ++k) {
      if (self_sum[kind][k] == 0) continue;
      extra += ", " + Quote(kSpanNames[k]) + ": " +
               FormatNumber(static_cast<double>(self_sum[kind][k]) / n / 1e3);
    }
    extra += "}";
  }
  extra += "}";
  std::vector<std::pair<std::string, int64_t>> samples = {
      {"statements", statements},
      {"parse_spans", static_cast<int64_t>(dur[kParse].size())},
      {"read_exec_spans", static_cast<int64_t>(dur[kExecRead].size())},
      {"write_exec_spans", static_cast<int64_t>(dur[kExecWrite].size())},
      {"backing_read_spans", backing_reads},
      {"backing_read_beyond_p99",
       SamplesBeyond(static_cast<size_t>(backing_reads), 0.99)},
      {"backing_write_spans", static_cast<int64_t>(dur[kBackingWrite].size())},
      {"invalidate_spans",
       static_cast<int64_t>(
           (durable ? dur[kInvalidate] : dur[kCacheWrite]).size())},
      {"checkpoint_spans", static_cast<int64_t>(dur[kCheckpoint].size())},
      {"ddc_write_samples",
       static_cast<int64_t>(durable ? ddc_write_ns.size()
                                    : dur[kBackingWrite].size())},
      {"shard_call_spans", static_cast<int64_t>(shard_calls.size())},
  };
  if (failed != 0) std::fprintf(stderr, "FAILED: %s\n", problem.c_str());
  PrintResult(ConfigJson(opt, in), samples, extra, failed == 0,
              a->Attempted() + b->Attempted() + c->Attempted(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2e_bench --workload "
               "hot_reports|durable_ingest|concurrent_mix --seed N "
               "--seconds S --trace 0|1 [--statements N] [--corrupt-answer] "
               "[--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-answer") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--statements") {
      opt.statements = std::strtoll(value, &end, 10);
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  if (opt.trace != 0 && opt.trace != 1) Usage("--trace must be 0 or 1");
  if (opt.statements < 0) Usage("--statements must be positive");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }
  return opt;
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
#ifdef __GLIBC__
  // Freed memory stays in the process, so the timed set-ups and phases
  // after WarmUp reuse pages already touched instead of faulting in fresh
  // ones: on a virtual machine the cost of a page fault follows the host's
  // load, and it spread set-up times by 0.1 to 0.2 of their median.
  // peak_rss_mb still shows a program that needs more memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  Inputs in{MakeWorkload(opt.workload), opt.seed, {}, {}, {}, opt.work_dir};
  in.budget = opt.statements > 0
                  ? opt.statements
                  : std::max<int64_t>(
                        1, std::llround(in.w.budget_rate * opt.seconds /
                                        in.w.clients));
  const int64_t longest =
      opt.trace == 1 ? TracedBudget(opt, in) : in.budget;
  in.preload = PreloadBatch(in.w, opt.seed);
  for (int c = 0; c < in.w.clients; ++c) {
    const int64_t length = in.w.kind == Kind::kConcurrentMix
                               ? std::min(longest, kConcurrentStreamLength)
                               : longest;
    in.streams.push_back(
        BuildStream(in.w, opt.seed, c, static_cast<size_t>(length)));
  }
  if (in.w.kind == Kind::kHotReports) {
    StatementGen gen(in.w, opt.seed, 0);
    for (const ReadSpec& r : gen.pool()) in.warmup.push_back(RenderRead(r));
    for (int i = 0; i < kWarmupZipfReads; ++i) {
      in.warmup.push_back(in.streams[0].texts[static_cast<size_t>(
          gen.WarmupPick())]);
    }
  }
  const int rc = opt.trace == 1 ? RunTraced(opt, in) : RunEndToEnd(opt, in);
  for (const char* sub : {"warmup", "rep", "untraced", "traced", "obs_off"}) {
    std::filesystem::remove_all(in.work_dir + "/" + sub);
  }
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
