#include "tools/commands.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "cache/cached_cube.h"
#include "common/bit_util.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/workload.h"
#include "concurrent/sharded_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "ddc/snapshot.h"
#include "fault/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_recorder.h"
#include "olap/measure.h"
#include "query/executor.h"
#include "tools/csv.h"
#include "wal/cube_log.h"

namespace ddc {
namespace tools {

namespace {

// Simple flag parser: collects "--name value" pairs and positional args.
struct ParsedArgs {
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> positional;

  bool GetFlag(const std::string& name, std::string* value) const {
    for (const auto& [flag, flag_value] : flags) {
      if (flag == name) {
        *value = flag_value;
        return true;
      }
    }
    return false;
  }

  bool GetInt(const std::string& name, int64_t* value) const {
    std::string text;
    if (!GetFlag(name, &text)) return false;
    return ParseInt64(text, value);
  }
};

bool ParseArgs(const std::vector<std::string>& args, ParsedArgs* parsed,
               std::ostream& err) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      if (i + 1 >= args.size()) {
        err << "flag " << args[i] << " is missing its value\n";
        return false;
      }
      parsed->flags.emplace_back(args[i].substr(2), args[i + 1]);
      ++i;
    } else {
      parsed->positional.push_back(args[i]);
    }
  }
  return true;
}

// Builds DdcOptions from the optional --fanout / --fenwick / --elide flags.
bool OptionsFromArgs(const ParsedArgs& args, DdcOptions* options,
                     std::ostream& err) {
  int64_t fanout = 0;
  if (args.GetInt("fanout", &fanout)) {
    if (fanout < 2) {
      err << "--fanout must be >= 2\n";
      return false;
    }
    options->bc_fanout = static_cast<int>(fanout);
  }
  int64_t elide = 0;
  if (args.GetInt("elide", &elide)) {
    if (elide < 0 || elide >= 62) {
      err << "--elide must be in [0, 61]\n";
      return false;
    }
    options->elide_levels = static_cast<int>(elide);
  }
  std::string fenwick;
  if (args.GetFlag("fenwick", &fenwick)) {
    options->use_fenwick = (fenwick == "1" || fenwick == "true");
  }
  return true;
}

std::unique_ptr<DynamicDataCube> NewCube(const ParsedArgs& args,
                                         std::ostream& err) {
  int64_t dims = 0;
  if (!args.GetInt("dims", &dims) || dims < 1 || dims > 20) {
    err << "--dims D (1..20) is required\n";
    return nullptr;
  }
  int64_t side = 16;
  if (args.GetInt("side", &side) && (side < 2 || !IsPowerOfTwo(side))) {
    err << "--side must be a power of two >= 2\n";
    return nullptr;
  }
  DdcOptions options;
  if (!OptionsFromArgs(args, &options, err)) return nullptr;
  return std::make_unique<DynamicDataCube>(static_cast<int>(dims), side,
                                           options);
}

std::unique_ptr<DynamicDataCube> OpenCube(const std::string& path,
                                          std::ostream& err) {
  auto cube = LoadSnapshotFromFile(path);
  if (cube == nullptr) {
    err << "cannot load cube snapshot from '" << path << "'\n";
  }
  return cube;
}

bool SaveCube(const DynamicDataCube& cube, const std::string& path,
              std::ostream& err) {
  if (!SaveSnapshotToFile(cube, path)) {
    err << "cannot write cube snapshot to '" << path << "'\n";
    return false;
  }
  return true;
}

}  // namespace

std::string UsageText() {
  return "ddctool — Dynamic Data Cube command line\n"
         "usage:\n"
         "  ddctool create --dims D [--side S] [--fanout F] [--elide H] "
         "[--fenwick 0|1] OUT\n"
         "  ddctool load   --dims D [--side S] --csv IN OUT\n"
         "  ddctool add    CUBE c1 ... cd value\n"
         "  ddctool query  CUBE --range lo1:hi1,...,lod:hid\n"
         "  ddctool select CUBE \"SUM [GROUP BY dK [SIZE g]] [WHERE dI IN "
         "[a,b] AND ...]\"\n"
         "                 (also writes: \"ADD AT [c1,...,cd] = v, AT ...\" "
         "/ \"SET AT ... = v\"\n"
         "                  and range writes: \"ADD v IN [l1,...,ld .. "
         "h1,...,hd]\" / \"SET v IN [...]\")\n"
         "  ddctool info   CUBE\n"
         "  ddctool export CUBE --csv OUT\n"
         "  ddctool shrink CUBE\n"
         "  ddctool stats  [--dims D] [--side S] [--ops N] [--shards K]\n"
         "                 [--format text|json|both] [--trace OUT|-] "
         "[--delta 1]\n"
         "  ddctool explain [--dims D] [--side S] [--ops N] \"<statement>\"\n"
         "                 (renders EXPLAIN [ANALYZE] for the statement "
         "against a seeded cube)\n"
         "  ddctool heatmap [--dims D] [--side S] [--ops N] "
         "[--format text|json|both] [--cached 0|1]\n"
         "                 (seeded range workload -> hot-range heatmap "
         "sketch; --cached 1\n"
         "                  routes reads through a CachedCube and reports "
         "hit/pin counts)\n"
         "  ddctool flightrec [--dims D] [--side S] [--ops N] [--dump PATH]\n"
         "                 (seeded statements -> flight-recorder ring dump)\n"
         "  ddctool faultrun --base PATH [--dims D] [--side S] [--seed N]\n"
         "                 [--batches N] [--batch-size K] [--acks FILE]\n"
         "                 (crash-recovery child for tools/crashloop.sh; "
         "exits 87 at injected crash points)\n";
}

int CmdCreate(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  if (parsed.positional.size() != 1) {
    err << "create: exactly one output path expected\n";
    return 2;
  }
  auto cube = NewCube(parsed, err);
  if (cube == nullptr) return 2;
  if (!SaveCube(*cube, parsed.positional[0], err)) return 1;
  out << "created empty cube: dims=" << cube->dims()
      << " side=" << cube->side() << " -> " << parsed.positional[0] << "\n";
  return 0;
}

int CmdLoad(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  std::string csv_path;
  if (!parsed.GetFlag("csv", &csv_path) || parsed.positional.size() != 1) {
    err << "load: --csv IN and one output path are required\n";
    return 2;
  }
  auto cube = NewCube(parsed, err);
  if (cube == nullptr) return 2;
  std::ifstream in(csv_path);
  if (!in.is_open()) {
    err << "cannot open CSV file '" << csv_path << "'\n";
    return 1;
  }
  int64_t rows = 0;
  std::string error;
  if (!LoadCsvIntoCube(&in, cube.get(), &rows, &error)) {
    err << "CSV error: " << error << "\n";
    return 1;
  }
  if (!SaveCube(*cube, parsed.positional[0], err)) return 1;
  out << "loaded " << rows << " rows; total=" << cube->TotalSum()
      << " side=" << cube->side() << " -> " << parsed.positional[0] << "\n";
  return 0;
}

int CmdAdd(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  if (parsed.positional.size() < 3) {
    err << "add: CUBE c1 ... cd value\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  const int dims = cube->dims();
  if (static_cast<int>(parsed.positional.size()) != dims + 2) {
    err << "add: cube has " << dims << " dimensions; expected " << dims
        << " coordinates plus a value\n";
    return 2;
  }
  Cell cell(static_cast<size_t>(dims));
  int64_t value = 0;
  for (int i = 0; i < dims; ++i) {
    if (!ParseInt64(parsed.positional[static_cast<size_t>(i + 1)],
                    &cell[static_cast<size_t>(i)])) {
      err << "add: bad coordinate '" << parsed.positional[i + 1] << "'\n";
      return 2;
    }
  }
  if (!ParseInt64(parsed.positional.back(), &value)) {
    err << "add: bad value '" << parsed.positional.back() << "'\n";
    return 2;
  }
  cube->Add(cell, value);
  if (!SaveCube(*cube, parsed.positional[0], err)) return 1;
  out << "A" << CellToString(cell) << " += " << value
      << "; cell now " << cube->Get(cell) << ", total " << cube->TotalSum()
      << "\n";
  return 0;
}

int CmdQuery(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  std::string range;
  if (parsed.positional.size() != 1 || !parsed.GetFlag("range", &range)) {
    err << "query: CUBE --range lo1:hi1,... required\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  Box box;
  std::string error;
  if (!ParseRangeSpec(range, cube->dims(), &box, &error)) {
    err << "query: " << error << "\n";
    return 2;
  }
  out << "range " << box.ToString() << " sum = " << cube->RangeSum(box)
      << "\n";
  return 0;
}

int CmdSelect(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  if (parsed.positional.size() != 2) {
    err << "select: CUBE \"<query>\" required (see ddctool help)\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  const QueryResult result = RunStatement(parsed.positional[1], cube.get());
  if (!result.ok) {
    err << "select: " << result.error << "\n";
    return 1;
  }
  // Write statements mutate the cube; persist the result.
  if (result.is_write && !SaveCube(*cube, parsed.positional[0], err)) {
    return 1;
  }
  out << FormatResult(result);
  return 0;
}

int CmdInfo(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  if (parsed.positional.size() != 1) {
    err << "info: exactly one cube path expected\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  const DdcStats stats = cube->Stats();
  out << "dims:          " << cube->dims() << "\n"
      << "domain:        " << CellToString(cube->DomainLo()) << " .. "
      << CellToString(cube->DomainHi()) << " (side " << cube->side() << ")\n"
      << "total sum:     " << cube->TotalSum() << "\n"
      << "nonzero cells: " << stats.nonzero_cells << "\n"
      << "storage cells: " << cube->StorageCells() << "\n"
      << "tree nodes:    " << stats.nodes << "\n"
      << "overlay boxes: " << stats.boxes << "\n"
      << "face stores:   " << stats.face_stores << "\n"
      << "bc faces:      " << stats.bc_faces << " (all nesting depths)\n"
      << "nested cores:  " << stats.nested_cores << " (all nesting depths)\n"
      << "leaf faces:    " << stats.leaf_faces << " (all nesting depths)\n"
      << "arena bytes:   " << stats.arena_bytes_used << " used, "
      << stats.arena_bytes_reserved << " reserved\n"
      << "leaf blocks:   " << stats.raw_blocks << " (" << stats.raw_cells
      << " cells)\n"
      << "options:       fanout=" << cube->options().bc_fanout
      << " elide=" << cube->options().elide_levels
      << " store=" << (cube->options().use_fenwick ? "fenwick" : "bc_tree")
      << "\n";
  return 0;
}

int CmdExport(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  std::string csv_path;
  if (parsed.positional.size() != 1 || !parsed.GetFlag("csv", &csv_path)) {
    err << "export: CUBE --csv OUT required\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  std::ofstream csv(csv_path, std::ios::trunc);
  if (!csv.is_open() || !ExportCubeToCsv(*cube, &csv)) {
    err << "cannot write CSV to '" << csv_path << "'\n";
    return 1;
  }
  out << "exported " << cube->Stats().nonzero_cells << " cells -> "
      << csv_path << "\n";
  return 0;
}

int CmdShrink(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  if (parsed.positional.size() != 1) {
    err << "shrink: exactly one cube path expected\n";
    return 2;
  }
  auto cube = OpenCube(parsed.positional[0], err);
  if (cube == nullptr) return 1;
  const int64_t before = cube->side();
  cube->ShrinkToFit();
  if (!SaveCube(*cube, parsed.positional[0], err)) return 1;
  out << "side " << before << " -> " << cube->side() << ", storage "
      << cube->StorageCells() << " cells\n";
  return 0;
}

namespace {

// Publishes a cube's structure census as ddc.structure.* gauges, so the
// stats surface shows the face hierarchy (B_c faces, nested face cores and
// leaf faces at every depth) and the arena bytes behind it next to the cost
// counters.
void PublishStructure(const DdcStats& stats) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetGauge("ddc.structure.nodes")->Set(stats.nodes);
  registry.GetGauge("ddc.structure.boxes")->Set(stats.boxes);
  registry.GetGauge("ddc.structure.leaf_blocks")->Set(stats.raw_blocks);
  registry.GetGauge("ddc.structure.face_stores")->Set(stats.face_stores);
  registry.GetGauge("ddc.structure.bc_faces")->Set(stats.bc_faces);
  registry.GetGauge("ddc.structure.nested_cores")->Set(stats.nested_cores);
  registry.GetGauge("ddc.structure.leaf_faces")->Set(stats.leaf_faces);
  registry.GetGauge("ddc.structure.arena_bytes_used")
      ->Set(stats.arena_bytes_used);
  registry.GetGauge("ddc.structure.arena_bytes_reserved")
      ->Set(stats.arena_bytes_reserved);
}

// The deterministic mixed workload behind `ddctool stats`: touches every
// instrumented subsystem so the rendered registry demonstrates the full
// metric surface (see DESIGN.md §9). Sized by --ops; everything is seeded,
// so repeat runs produce identical counter totals.
void RunStatsWorkload(int dims, int64_t side, int64_t ops, int shards) {
  const size_t ud = static_cast<size_t>(dims);

  // Single-writer cube: updates (with growth past `side`), point reads,
  // range queries, a batched report, and a shrink — covers ddc.*, arena.*.
  DynamicDataCube cube(dims, side);
  Cell cell(ud);
  for (int64_t i = 0; i < ops; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      cell[j] = (i * 7 + static_cast<int64_t>(j) * 13) % (side * 2);
    }
    cube.Add(cell, 1 + i % 5);
  }
  // One range-add: its journal entry is scanned by every read below
  // (ddc.query.overlay_journal_boxes).
  cube.RangeAdd(Box{UniformCell(dims, 1), UniformCell(dims, side / 2)}, 2);
  Box all{UniformCell(dims, 0), UniformCell(dims, side - 1)};
  (void)cube.RangeSum(all);
  (void)cube.Get(UniformCell(dims, 1));
  std::vector<Box> slices;
  for (Coord g = 0; g < side; g += 2) {
    Box slice = all;
    slice.hi[0] = std::min<Coord>(side - 1, g + 1);
    slice.lo[0] = g;
    slices.push_back(slice);
  }
  std::vector<int64_t> sums(slices.size());
  cube.RangeSumBatch(slices, sums);
  (void)RunQuery("SUM GROUP BY d0 SIZE 4", cube);
  // One batched update (ddc.update.batch.*) and one write statement
  // (query.write.*) through the same shared-descent path.
  MutationBatch updates;
  for (int64_t i = 0; i < ops / 4 + 2; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      cell[j] = (i * 3 + static_cast<int64_t>(j) * 7) % side;
    }
    updates.push_back(Mutation{cell, 1, MutationKind::kAdd});
  }
  cube.ApplyBatch(updates);
  {
    std::string write = "ADD AT [0";
    for (int j = 1; j < dims; ++j) write += ", 0";
    write += "] = 1";
    (void)RunStatement(write, &cube);
  }
  cube.ShrinkToFit();
  PublishStructure(cube.Stats());

  // Measure cube: the grouped COUNT/AVG path goes through olap::GroupBy;
  // half the observations arrive through the batched ingest path.
  MeasureCube measures(dims, side);
  std::vector<Observation> observations;
  for (int64_t i = 0; i < ops / 4 + 1; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      cell[j] = (i * 5 + static_cast<int64_t>(j) * 3) % side;
    }
    if (i % 2 == 0) {
      measures.AddObservation(cell, i % 7);
    } else {
      observations.push_back(Observation{cell, i % 7});
    }
  }
  measures.AddObservationBatch(observations);
  (void)RunQuery("AVG GROUP BY d0 SIZE 2", measures);

  // Sharded facade: point ops, one grouped batch, cross-shard reads.
  ShardedCube striped(dims, side, shards);
  std::vector<UpdateOp> batch;
  for (int64_t i = 0; i < ops; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      cell[j] = (i * 11 + static_cast<int64_t>(j) * 17) % side;
    }
    if (i % 3 == 0) {
      striped.Add(cell, 1);
    } else {
      batch.push_back(UpdateOp{cell, 1, UpdateKind::kAdd});
    }
  }
  striped.ApplyBatch(batch);
  (void)striped.Get(UniformCell(dims, 0));
  (void)striped.RangeSum(all);  // Spans every slab: the cross-shard path.
  striped.RangeSumBatch(slices, sums);
  (void)striped.TotalSum();

  // The coarse configuration, one shard: the batch reaches its cube whole.
  ShardedCube coarse(dims, side, 1);
  for (Coord c = 0; c < side; ++c) coarse.Add(UniformCell(dims, c % side), 1);
  coarse.RangeSumBatch(slices, sums);

  // Query-result cache: misses, hits, a hot-range adoption, precise
  // invalidations (point, additive range, assigning range) and a flush —
  // covers the whole cache.* family (DESIGN.md §16).
  {
    DynamicDataCube backend(dims, side);
    for (int64_t i = 0; i < ops / 4 + 4; ++i) {
      for (size_t j = 0; j < ud; ++j) {
        cell[j] = (i * 5 + static_cast<int64_t>(j) * 11) % side;
      }
      backend.Add(cell, 1 + i % 3);
    }
    CachedCube cached(&backend);
    // Two passes over the report slices: pass one misses and populates,
    // pass two hits, so both sides of cache.hit_ratio move.
    for (int pass = 0; pass < 2; ++pass) {
      for (const Box& slice : slices) (void)cached.RangeSum(slice);
    }
    (void)cached.AdoptHotRanges();
    cached.Add(UniformCell(dims, 0), 1);  // Point invalidation / pin patch.
    cached.RangeAdd(all, 1);              // Additive range: pins patched.
    Box corner = all;
    corner.hi = corner.lo;
    cached.RangeSet(corner, 3);           // Assigning range: evicts pins.
    (void)RunStatement("SUM GROUP BY d0 SIZE 4", &cached);
    cached.Flush();
  }

  // A private pool guarantees threadpool.* samples even on hosts where the
  // shared pool sizes itself to zero workers.
  {
    ThreadPool pool(2);
    pool.ParallelFor(16, [](size_t i) {
      int64_t sink = 0;
      for (int k = 0; k < 1000; ++k) sink += k;
      DDC_CHECK(sink > 0 || i == 0);
    });
  }

  // Durable cube: appends (some synced), one group commit, a checkpoint,
  // then a second instance recovering the un-checkpointed tail — covers
  // wal.* including wal.group_commit.*.
  const std::string base =
      "/tmp/ddctool_stats_" + std::to_string(::getpid());
  {
    DurableCube durable(dims, side, base);
    for (int64_t i = 0; i < ops / 8 + 4; ++i) {
      for (size_t j = 0; j < ud; ++j) cell[j] = (i + static_cast<int64_t>(j)) % side;
      durable.Add(cell, 1, /*sync=*/i % 4 == 0);
    }
    MutationBatch group;
    for (int64_t i = 0; i < 8; ++i) {
      cell.assign(ud, i % side);
      group.push_back(Mutation{cell, 1, MutationKind::kAdd});
    }
    durable.ApplyBatch(group);
    durable.CheckpointIfRerooted();
    durable.Checkpoint();
    for (int64_t i = 0; i < 4; ++i) {
      cell.assign(ud, i % side);
      durable.Add(cell, 2, /*sync=*/false);
    }
  }
  { DurableCube recovered(dims, side, base); }
  std::remove((base + ".snap").c_str());
  std::remove((base + ".log").c_str());
}

}  // namespace

int CmdStats(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  int64_t dims = 2;
  if (parsed.GetInt("dims", &dims) && (dims < 1 || dims > 20)) {
    err << "stats: --dims must be in [1, 20]\n";
    return 2;
  }
  int64_t side = 8;
  if (parsed.GetInt("side", &side) && (side < 2 || !IsPowerOfTwo(side))) {
    err << "stats: --side must be a power of two >= 2\n";
    return 2;
  }
  int64_t ops = 512;
  if (parsed.GetInt("ops", &ops) && ops < 1) {
    err << "stats: --ops must be >= 1\n";
    return 2;
  }
  int64_t shards = 4;
  if (parsed.GetInt("shards", &shards) && shards < 1) {
    err << "stats: --shards must be >= 1\n";
    return 2;
  }
  std::string format = "both";
  parsed.GetFlag("format", &format);
  if (format != "text" && format != "json" && format != "both") {
    err << "stats: --format must be text, json or both\n";
    return 2;
  }
  std::string delta_flag;
  const bool delta = parsed.GetFlag("delta", &delta_flag) &&
                     (delta_flag == "1" || delta_flag == "true");

  if (!obs::Enabled()) {
    err << "stats: observability is disabled "
           "(DDC_OBS_ENABLED=0 or built with -DDDC_OBS=OFF); "
           "metrics below will be empty\n";
  }
  obs::MetricsRegistry::Default().Reset();
  obs::ResetTrace();
  RunStatsWorkload(static_cast<int>(dims), side, ops,
                   static_cast<int>(shards));

  if (delta) {
    // Two snapshots around a second identical workload run: report each
    // counter's delta and its rate per second of wall time.
    std::map<std::string, int64_t> before;
    obs::MetricsRegistry::Default().ForEach(
        [&](const std::string& name, const obs::Counter& c) {
          before[name] = c.Value();
        },
        [](const std::string&, const obs::Gauge&) {},
        [](const std::string&, const obs::Histogram&) {});
    const uint64_t t0 = obs::NowNanos();
    RunStatsWorkload(static_cast<int>(dims), side, ops,
                     static_cast<int>(shards));
    const uint64_t t1 = obs::NowNanos();
    const double seconds =
        std::max(1e-9, static_cast<double>(t1 - t0) / 1e9);
    std::map<std::string, int64_t> deltas;
    obs::MetricsRegistry::Default().ForEach(
        [&](const std::string& name, const obs::Counter& c) {
          const auto it = before.find(name);
          const int64_t d =
              c.Value() - (it == before.end() ? 0 : it->second);
          if (d != 0) deltas[name] = d;
        },
        [](const std::string&, const obs::Gauge&) {},
        [](const std::string&, const obs::Histogram&) {});
    if (format == "text" || format == "both") {
      out << "# stats delta: second workload run, window_ns=" << (t1 - t0)
          << "\n";
      for (const auto& [name, d] : deltas) {
        out << name << " +" << d << " ("
            << static_cast<int64_t>(static_cast<double>(d) / seconds)
            << "/s)\n";
      }
    }
    if (format == "json" || format == "both") {
      out << "{\"window_ns\": " << (t1 - t0) << ", \"counters\": {";
      bool first = true;
      for (const auto& [name, d] : deltas) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << name << "\": {\"delta\": " << d << ", \"per_sec\": "
            << static_cast<int64_t>(static_cast<double>(d) / seconds)
            << "}";
      }
      out << "}}\n";
    }
    return 0;
  }

  if (format == "text" || format == "both") obs::RenderText(out);
  if (format == "json" || format == "both") obs::RenderJson(out);
  std::string trace_path;
  if (parsed.GetFlag("trace", &trace_path)) {
    if (trace_path == "-") {
      obs::RenderTraceJson(out);
    } else {
      std::ofstream trace_out(trace_path, std::ios::trunc);
      if (!trace_out.is_open()) {
        err << "stats: cannot write trace to '" << trace_path << "'\n";
        return 1;
      }
      obs::RenderTraceJson(trace_out);
      out << "trace written to " << trace_path << "\n";
    }
  }
  return 0;
}

namespace {

// Deterministic fill shared by the introspection commands, so `ddctool
// explain` plans and `flightrec` dumps are stable across runs.
void SeedIntrospectionCube(DynamicDataCube* cube, int64_t ops) {
  const size_t ud = static_cast<size_t>(cube->dims());
  const int64_t side = cube->side();
  MutationBatch batch;
  Cell cell(ud);
  for (int64_t i = 0; i < ops; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      cell[j] = (i * 7 + static_cast<int64_t>(j) * 13) % side;
    }
    batch.push_back(Mutation{cell, 1 + i % 5, MutationKind::kAdd});
  }
  cube->ApplyBatch(batch);
}

// Common --dims/--side/--ops parsing for the introspection commands.
bool IntrospectionDims(const ParsedArgs& parsed, const char* cmd,
                       int64_t* dims, int64_t* side, int64_t* ops,
                       std::ostream& err) {
  if (parsed.GetInt("dims", dims) && (*dims < 1 || *dims > 20)) {
    err << cmd << ": --dims must be in [1, 20]\n";
    return false;
  }
  if (parsed.GetInt("side", side) && (*side < 2 || !IsPowerOfTwo(*side))) {
    err << cmd << ": --side must be a power of two >= 2\n";
    return false;
  }
  if (parsed.GetInt("ops", ops) && *ops < 1) {
    err << cmd << ": --ops must be >= 1\n";
    return false;
  }
  return true;
}

}  // namespace

int CmdExplain(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  int64_t dims = 2;
  int64_t side = 8;
  int64_t ops = 64;
  if (!IntrospectionDims(parsed, "explain", &dims, &side, &ops, err)) {
    return 2;
  }
  if (parsed.positional.size() != 1) {
    err << "explain: exactly one quoted statement expected\n";
    return 2;
  }
  DynamicDataCube cube(static_cast<int>(dims), side);
  SeedIntrospectionCube(&cube, ops);
  std::string text = parsed.positional[0];
  // Prepend the EXPLAIN prefix when absent, so `ddctool explain "SUM"` and
  // `ddctool explain "EXPLAIN ANALYZE SUM"` both work.
  std::string head;
  for (size_t i = text.find_first_not_of(" \t");
       i != std::string::npos && i < text.size() &&
       std::isalpha(static_cast<unsigned char>(text[i]));
       ++i) {
    head += static_cast<char>(
        std::toupper(static_cast<unsigned char>(text[i])));
  }
  if (head != "EXPLAIN") text = "EXPLAIN " + text;
  const QueryResult result = RunStatement(text, &cube);
  if (!result.ok) {
    err << "explain: " << result.error << "\n";
    return 1;
  }
  out << FormatResult(result);
  return 0;
}

int CmdHeatmap(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  int64_t dims = 2;
  int64_t side = 16;
  int64_t ops = 256;
  if (!IntrospectionDims(parsed, "heatmap", &dims, &side, &ops, err)) {
    return 2;
  }
  std::string format = "both";
  parsed.GetFlag("format", &format);
  if (format != "text" && format != "json" && format != "both") {
    err << "heatmap: --format must be text, json or both\n";
    return 2;
  }
  std::string cached_flag;
  const bool use_cache = parsed.GetFlag("cached", &cached_flag) &&
                         (cached_flag == "1" || cached_flag == "true");
  if (!obs::Enabled()) {
    err << "heatmap: observability is disabled "
           "(DDC_OBS_ENABLED=0 or built with -DDDC_OBS=OFF); "
           "the sketch below will be empty\n";
  }
  obs::WorkloadRecorder& recorder = obs::WorkloadRecorder::Default();
  recorder.Reset();

  // Seeded traffic: point and range mutations in one batch, then a read
  // sweep of growing boxes plus one deliberately hot box so the top-K list
  // has an unambiguous head.
  const size_t ud = static_cast<size_t>(dims);
  DynamicDataCube cube(static_cast<int>(dims), side);
  MutationBatch batch;
  Cell lo(ud);
  Cell hi(ud);
  for (int64_t i = 0; i < ops; ++i) {
    for (size_t j = 0; j < ud; ++j) {
      lo[j] = (i * 7 + static_cast<int64_t>(j) * 13) % side;
    }
    if (i % 4 == 0) {
      for (size_t j = 0; j < ud; ++j) {
        hi[j] = std::min<Coord>(side - 1, lo[j] + 1 + (i / 4) % 4);
      }
      batch.push_back(MakeRangeAdd(Cell(lo), Cell(hi), 1));
    } else {
      batch.push_back(Mutation{lo, 1 + i % 3, MutationKind::kAdd});
    }
  }
  cube.ApplyBatch(batch);
  // With --cached 1 the read sweep routes through a CachedCube: hits
  // re-record into the same sketch (so hot boxes stay hot when served from
  // cache) and the summary line below shows how the top-K ranges convert
  // into pinned materializations.
  std::optional<CachedCube> cached;
  if (use_cache) cached.emplace(&cube);
  const Box hot{UniformCell(static_cast<int>(dims), 0),
                UniformCell(static_cast<int>(dims),
                            std::min<Coord>(side - 1, 3))};
  for (int64_t i = 0; i < ops; ++i) {
    Box box;
    box.lo.resize(ud);
    box.hi.resize(ud);
    for (size_t j = 0; j < ud; ++j) {
      box.lo[j] = (i * 5 + static_cast<int64_t>(j) * 3) % side;
      box.hi[j] = std::min<Coord>(side - 1, box.lo[j] + (1 << (i % 3)));
    }
    if (use_cache) {
      (void)cached->RangeSum(box);
      if (i % 2 == 0) (void)cached->RangeSum(hot);
    } else {
      (void)cube.RangeSum(box);
      if (i % 2 == 0) (void)cube.RangeSum(hot);
    }
  }

  if (format == "text" || format == "both") recorder.RenderText(out);
  if (format == "json" || format == "both") recorder.RenderJson(out);
  if (use_cache) {
    const int adopted = cached->AdoptHotRanges();
    const CacheStats stats = cached->Stats();
    out << "cache: hits=" << stats.hits << " misses=" << stats.misses
        << " entries=" << stats.entries << " pinned=" << stats.pinned_entries
        << " adopted=" << adopted << "\n";
  }
  return 0;
}

int CmdFlightrec(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  int64_t dims = 2;
  int64_t side = 8;
  int64_t ops = 32;
  if (!IntrospectionDims(parsed, "flightrec", &dims, &side, &ops, err)) {
    return 2;
  }
  if (!obs::Enabled()) {
    err << "flightrec: observability is disabled "
           "(DDC_OBS_ENABLED=0 or built with -DDDC_OBS=OFF); "
           "the ring below will be empty\n";
  }
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  recorder.Reset();

  DynamicDataCube cube(static_cast<int>(dims), side);
  SeedIntrospectionCube(&cube, 32);
  for (int64_t i = 0; i < ops; ++i) {
    const int64_t a = i % side;
    const int64_t b = std::min<int64_t>(side - 1, a + 3);
    std::string stmt;
    if (i % 4 == 0) {
      stmt = "ADD AT [" + std::to_string(a);
      for (int64_t j = 1; j < dims; ++j) stmt += ", " + std::to_string(a);
      stmt += "] = 1";
    } else if (i % 7 == 0) {
      stmt = "EXPLAIN ANALYZE SUM WHERE d0 IN [" + std::to_string(a) + ", " +
             std::to_string(b) + "]";
    } else {
      stmt = "SUM WHERE d0 IN [" + std::to_string(a) + ", " +
             std::to_string(b) + "]";
    }
    (void)RunStatement(stmt, &cube);
  }

  std::string dump_path;
  if (parsed.GetFlag("dump", &dump_path)) {
    static constexpr char kSite[] = "ddctool flightrec";
    if (!recorder.DumpToFile(dump_path.c_str(), kSite, sizeof(kSite) - 1)) {
      err << "flightrec: cannot write dump to '" << dump_path << "'\n";
      return 1;
    }
    out << "flight recorder dumped " << recorder.TotalRecorded()
        << " records to " << dump_path << "\n";
  } else {
    recorder.RenderJson(out);
  }
  return 0;
}

namespace {

// --- faultrun: the crash-recovery differential child process ---------------
//
// tools/crashloop.sh runs `ddctool faultrun` repeatedly with crash-armed
// DDC_FAULTPOINTS. The workload is a pure function of (--seed, batch
// index), so after a kill the next run reconstructs the committed prefix
// from nothing but the ack file and the two integers, verifies recovery
// against it, and resumes. Protocol details in DESIGN.md §11.

uint64_t FaultrunMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Batch i of the deterministic workload. Mixed ADD/SET, deltas in [-9, 9];
// coordinates mostly inside 2x the seed side, with every 8th batch
// reaching to 4x so growth re-roots keep happening across restarts.
MutationBatch FaultrunBatch(uint64_t seed, int64_t index, int dims,
                            int64_t side, int64_t batch_size) {
  uint64_t s =
      seed ^ (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(index) + 1));
  const int64_t n =
      1 + static_cast<int64_t>(FaultrunMix(&s) %
                               static_cast<uint64_t>(batch_size));
  const int64_t reach = (index % 8 == 5) ? side * 4 : side * 2;
  MutationBatch batch;
  batch.reserve(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    Mutation m;
    m.cell.resize(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      m.cell[static_cast<size_t>(d)] = static_cast<Coord>(
          FaultrunMix(&s) % static_cast<uint64_t>(reach));
    }
    m.delta = static_cast<int64_t>(FaultrunMix(&s) % 19) - 9;
    m.kind = (FaultrunMix(&s) % 4 == 0) ? MutationKind::kSet
                                        : MutationKind::kAdd;
    batch.push_back(std::move(m));
  }
  return batch;
}

// The shadow oracle: a fresh cube with batches [0, upto) applied.
std::unique_ptr<DynamicDataCube> FaultrunExpected(uint64_t seed, int64_t upto,
                                                  int dims, int64_t side,
                                                  int64_t batch_size) {
  auto cube = std::make_unique<DynamicDataCube>(dims, side);
  for (int64_t i = 0; i < upto; ++i) {
    cube->ApplyBatch(FaultrunBatch(seed, i, dims, side, batch_size));
  }
  return cube;
}

bool FaultrunCubesEqual(const DynamicDataCube& a, const DynamicDataCube& b) {
  if (a.TotalSum() != b.TotalSum()) return false;
  bool equal = true;
  a.ForEachNonZero([&](const Cell& cell, int64_t v) {
    if (b.Get(cell) != v) equal = false;
  });
  b.ForEachNonZero([&](const Cell& cell, int64_t v) {
    if (a.Get(cell) != v) equal = false;
  });
  return equal;
}

// Counts sequential "ack <i>" lines; -1 on a gap or garbage (a damaged ack
// file means the harness itself is broken — fail loudly, don't guess).
int64_t ReadAckCount(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return 0;
  int64_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line != "ack " + std::to_string(count)) return -1;
    ++count;
  }
  return count;
}

bool AppendAck(const std::string& path, int64_t index) {
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) return false;
  out << "ack " << index << "\n";
  out.flush();
  return out.good();
}

}  // namespace

int CmdFaultRun(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) return 2;
  std::string base;
  if (!parsed.GetFlag("base", &base)) {
    err << "faultrun: --base PATH is required\n";
    return 2;
  }
  int64_t dims = 2;
  if (parsed.GetInt("dims", &dims) && (dims < 1 || dims > 20)) {
    err << "faultrun: --dims must be in [1, 20]\n";
    return 2;
  }
  int64_t side = 16;
  if (parsed.GetInt("side", &side) && (side < 2 || !IsPowerOfTwo(side))) {
    err << "faultrun: --side must be a power of two >= 2\n";
    return 2;
  }
  int64_t seed = 1;
  parsed.GetInt("seed", &seed);
  int64_t batches = 64;
  if (parsed.GetInt("batches", &batches) && batches < 1) {
    err << "faultrun: --batches must be >= 1\n";
    return 2;
  }
  int64_t batch_size = 8;
  if (parsed.GetInt("batch-size", &batch_size) && batch_size < 1) {
    err << "faultrun: --batch-size must be >= 1\n";
    return 2;
  }
  std::string acks = base + ".acks";
  parsed.GetFlag("acks", &acks);

  // Post-mortem visibility for the crashloop harness: fatal signals (and
  // the DDC_FAULTPOINT crash branch, which hooks this itself) dump the
  // flight-recorder ring to $DDC_FLIGHTREC_DUMP.
  obs::InstallFlightRecorderSignalHandlers();

  const int64_t acked = ReadAckCount(acks);
  if (acked < 0) {
    err << "faultrun: corrupt ack file '" << acks << "'\n";
    return 4;
  }

  DurableCube durable(static_cast<int>(dims), side, base);
  if (!durable.durable()) {
    err << "faultrun: cannot open durable files at '" << base << "'\n";
    return 4;
  }

  // Committed-prefix check: recovery must equal the acked prefix exactly —
  // except that one *unacked* committed batch is legal, because a crash can
  // land between the WAL sync and the ack write (the wal.commit.acked
  // window). In that case the ack is reconciled and the run resumes after
  // it.
  int64_t resume = acked;
  auto expected = FaultrunExpected(static_cast<uint64_t>(seed), acked,
                                   static_cast<int>(dims), side, batch_size);
  if (!FaultrunCubesEqual(durable.cube(), *expected)) {
    bool reconciled = false;
    if (acked < batches) {
      expected->ApplyBatch(FaultrunBatch(static_cast<uint64_t>(seed), acked,
                                         static_cast<int>(dims), side,
                                         batch_size));
      if (FaultrunCubesEqual(durable.cube(), *expected)) {
        AppendAck(acks, acked);
        resume = acked + 1;
        reconciled = true;
      }
    }
    if (!reconciled) {
      err << "faultrun: recovered state matches neither the acked prefix ("
          << acked << " batches) nor prefix+1 — committed-prefix contract "
          << "violated\n";
      return 3;
    }
  }
  out << "faultrun: recovered acked=" << acked << " resume=" << resume
      << " replayed=" << durable.recovery().batches << " batches\n";

  // Query-result cache over the recovered cube, rebuilt cold every run: the
  // cache is never WAL-durable, so recovery must not depend on it. Writes
  // land in the durable cube directly and are *reported* via
  // InvalidateBatch — whose cache.invalidate.mid fault site is where
  // tools/crashloop.sh kills this process mid-invalidation.
  CachedCube cache(&durable.cube());

  for (int64_t i = resume; i < batches; ++i) {
    const MutationBatch batch = FaultrunBatch(
        static_cast<uint64_t>(seed), i, static_cast<int>(dims), side,
        batch_size);
    obs::CostLedger ledger;
    const uint64_t batch_start = obs::NowNanos();
    bool ok = false;
    try {
      obs::ScopedCostLedger ledger_scope(&ledger);
      ok = durable.ApplyBatch(batch, /*sync=*/true);
    } catch (const fault::AllocFailure&) {
      // The in-memory tree may hold a partial batch; the WAL already has
      // the record. Only a crash + recovery yields a consistent state.
      static constexpr char kSite[] = "faultrun.alloc_failure";
      obs::FlightRecorderCrashDump(kSite, sizeof(kSite) - 1);
      _exit(fault::kCrashExitCode);
    }
    if (!ok) {
      // Failed append/sync: the log refuses further writes (poisoned), so
      // continuing is impossible — treat it exactly like a crash and let
      // the next run recover the acked prefix.
      err << "faultrun: WAL append failed at batch " << i
          << " (crash point)\n";
      err.flush();
      static constexpr char kSite[] = "faultrun.wal_append_failed";
      obs::FlightRecorderCrashDump(kSite, sizeof(kSite) - 1);
      _exit(fault::kCrashExitCode);
    }
    // One flight record per durable batch: the last things a crashed run
    // was doing show up in the post-mortem dump.
    if (obs::Enabled()) {
      const std::string tag = "faultrun batch " + std::to_string(i);
      obs::FlightRecord rec;
      rec.kind = obs::FlightRecorder::kKindBatch;
      rec.statement_hash = obs::HashStatement(tag.data(), tag.size());
      rec.nodes_visited = ledger.nodes_visited;
      rec.values_read = ledger.values_read;
      rec.values_written = ledger.values_written;
      rec.duration_ns =
          static_cast<int64_t>(obs::NowNanos() - batch_start);
      rec.arg = static_cast<int64_t>(batch.size());
      obs::FlightRecorder::Default().Record(rec);
    }
    // The durable batch is committed; bring the cache in line before the
    // ack. A crash inside this call lands in the applied-but-unacked
    // window, which the next run's prefix+1 reconciliation covers.
    cache.InvalidateBatch(batch);
    // Cached-vs-direct differential: a seeded probe box read through the
    // cache twice (miss-populate, then hit) must equal the direct read.
    {
      uint64_t ps = static_cast<uint64_t>(seed) ^
                    (0xD1B54A32D192ED03ull * (static_cast<uint64_t>(i) + 1));
      Box probe;
      probe.lo.resize(static_cast<size_t>(dims));
      probe.hi.resize(static_cast<size_t>(dims));
      for (int d = 0; d < dims; ++d) {
        const Coord a = static_cast<Coord>(FaultrunMix(&ps) %
                                           static_cast<uint64_t>(side * 4));
        const Coord b = static_cast<Coord>(FaultrunMix(&ps) %
                                           static_cast<uint64_t>(side * 4));
        probe.lo[static_cast<size_t>(d)] = std::min(a, b);
        probe.hi[static_cast<size_t>(d)] = std::max(a, b);
      }
      const int64_t direct = durable.cube().RangeSum(probe);
      if (cache.RangeSum(probe) != direct ||
          cache.RangeSum(probe) != direct) {
        err << "faultrun: cached read diverges from the durable cube at "
            << "batch " << i << "\n";
        return 3;
      }
    }
    AppendAck(acks, i);
    if (i % 7 == 3) {
      durable.Checkpoint();  // May fail under wal.checkpoint.tear: fine,
                             // the log still holds everything post-snapshot.
    } else if (i % 5 == 2) {
      durable.CheckpointIfRerooted();
    }
  }

  auto final_expected =
      FaultrunExpected(static_cast<uint64_t>(seed), batches,
                       static_cast<int>(dims), side, batch_size);
  if (!FaultrunCubesEqual(durable.cube(), *final_expected)) {
    err << "faultrun: final state diverges from the shadow cube\n";
    return 3;
  }
  out << "faultrun: completed batches=" << batches
      << " total=" << durable.cube().TotalSum() << "\n";
  return 0;
}

int RunDdcTool(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  if (args.empty()) {
    err << UsageText();
    return 2;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "create") return CmdCreate(rest, out, err);
  if (command == "load") return CmdLoad(rest, out, err);
  if (command == "add") return CmdAdd(rest, out, err);
  if (command == "query") return CmdQuery(rest, out, err);
  if (command == "select") return CmdSelect(rest, out, err);
  if (command == "info") return CmdInfo(rest, out, err);
  if (command == "export") return CmdExport(rest, out, err);
  if (command == "shrink") return CmdShrink(rest, out, err);
  if (command == "stats") return CmdStats(rest, out, err);
  if (command == "explain") return CmdExplain(rest, out, err);
  if (command == "heatmap") return CmdHeatmap(rest, out, err);
  if (command == "flightrec") return CmdFlightrec(rest, out, err);
  if (command == "faultrun") return CmdFaultRun(rest, out, err);
  if (command == "help" || command == "--help") {
    out << UsageText();
    return 0;
  }
  err << "unknown command '" << command << "'\n" << UsageText();
  return 2;
}

}  // namespace tools
}  // namespace ddc
