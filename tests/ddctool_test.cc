// End-to-end tests of the ddctool command set, driven through the command
// dispatcher with in-memory streams and temp files.

#include "tools/commands.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace ddc {
namespace tools {
namespace {

class DdcToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_path_ = "/tmp/ddctool_test_cube.snap";
    csv_path_ = "/tmp/ddctool_test_data.csv";
    std::remove(cube_path_.c_str());
    std::remove(csv_path_.c_str());
  }

  void TearDown() override {
    std::remove(cube_path_.c_str());
    std::remove(csv_path_.c_str());
  }

  // Runs the tool and returns the exit code; captures stdout into *out.
  int Run(const std::vector<std::string>& args, std::string* out = nullptr,
          std::string* err = nullptr) {
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code = RunDdcTool(args, out_stream, err_stream);
    if (out != nullptr) *out = out_stream.str();
    if (err != nullptr) *err = err_stream.str();
    return code;
  }

  std::string cube_path_;
  std::string csv_path_;
};

TEST_F(DdcToolTest, CreateAddQueryRoundTrip) {
  EXPECT_EQ(Run({"create", "--dims", "2", "--side", "16", cube_path_}), 0);

  std::string out;
  EXPECT_EQ(Run({"add", cube_path_, "3", "4", "100"}, &out), 0);
  EXPECT_NE(out.find("total 100"), std::string::npos);
  EXPECT_EQ(Run({"add", cube_path_, "5", "6", "50"}), 0);

  EXPECT_EQ(Run({"query", cube_path_, "--range", "0:10,0:10"}, &out), 0);
  EXPECT_NE(out.find("sum = 150"), std::string::npos);
  EXPECT_EQ(Run({"query", cube_path_, "--range", "3:3,4:4"}, &out), 0);
  EXPECT_NE(out.find("sum = 100"), std::string::npos);
}

TEST_F(DdcToolTest, LoadCsvAndInfo) {
  {
    std::ofstream csv(csv_path_);
    csv << "x,y,value\n";
    csv << "1,1,10\n2,2,20\n-100,3,5\n";
  }
  std::string out;
  ASSERT_EQ(Run({"load", "--dims", "2", "--csv", csv_path_, cube_path_},
                &out),
            0);
  EXPECT_NE(out.find("loaded 3 rows"), std::string::npos);
  EXPECT_NE(out.find("total=35"), std::string::npos);

  ASSERT_EQ(Run({"info", cube_path_}, &out), 0);
  EXPECT_NE(out.find("total sum:     35"), std::string::npos);
  EXPECT_NE(out.find("nonzero cells: 3"), std::string::npos);
  EXPECT_NE(out.find("bc faces:"), std::string::npos);
  EXPECT_NE(out.find("nested cores:  0"), std::string::npos);
  EXPECT_NE(out.find("leaf faces:    0"), std::string::npos);
  EXPECT_NE(out.find("arena bytes:   "), std::string::npos);
  EXPECT_EQ(out.find("arena bytes:   0 used"), std::string::npos);
}

TEST_F(DdcToolTest, InfoCensusOfA3DCube) {
  // Side 8 at elide 0: the side-4 boxes' faces are nested 2-D cores, the
  // side-2 boxes' faces bare leaf slabs.
  ASSERT_EQ(Run({"create", "--dims", "3", "--side", "8", cube_path_}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "1", "2", "3", "5"}), 0);
  std::string out;
  ASSERT_EQ(Run({"info", cube_path_}, &out), 0);
  // One box per level on the cell's path: 3 faces each.
  EXPECT_NE(out.find("nested cores:  3 "), std::string::npos) << out;
  EXPECT_NE(out.find("leaf faces:    3 "), std::string::npos) << out;
  // The nested side-4 cores each hold one side-2 box with two inline faces.
  EXPECT_NE(out.find("bc faces:      6 "), std::string::npos) << out;
  EXPECT_EQ(out.find("arena bytes:   0 used"), std::string::npos) << out;
}

TEST_F(DdcToolTest, ExportReimportsIdentically) {
  ASSERT_EQ(Run({"create", "--dims", "2", cube_path_}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "7", "8", "42"}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "-2", "30", "17"}), 0);
  ASSERT_EQ(Run({"export", cube_path_, "--csv", csv_path_}), 0);

  const std::string second_cube = "/tmp/ddctool_test_cube2.snap";
  std::string out;
  ASSERT_EQ(
      Run({"load", "--dims", "2", "--csv", csv_path_, second_cube}, &out), 0);
  EXPECT_NE(out.find("total=59"), std::string::npos);
  ASSERT_EQ(Run({"query", second_cube, "--range", "7,8"}, &out), 0);
  EXPECT_NE(out.find("sum = 42"), std::string::npos);
  std::remove(second_cube.c_str());
}

TEST_F(DdcToolTest, ShrinkReducesDomain) {
  ASSERT_EQ(Run({"create", "--dims", "2", "--side", "4", cube_path_}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "5000", "5000", "1"}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "5000", "5000", "-1"}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "1", "1", "9"}), 0);
  std::string out;
  ASSERT_EQ(Run({"shrink", cube_path_}, &out), 0);
  EXPECT_NE(out.find("-> 2"), std::string::npos);
  ASSERT_EQ(Run({"query", cube_path_, "--range", "1,1"}, &out), 0);
  EXPECT_NE(out.find("sum = 9"), std::string::npos);
}

TEST_F(DdcToolTest, OptionsFlagsAreApplied) {
  ASSERT_EQ(Run({"create", "--dims", "2", "--fanout", "4", "--elide", "2",
                 cube_path_}),
            0);
  std::string out;
  ASSERT_EQ(Run({"info", cube_path_}, &out), 0);
  EXPECT_NE(out.find("fanout=4"), std::string::npos);
  EXPECT_NE(out.find("elide=2"), std::string::npos);
}

TEST_F(DdcToolTest, ErrorHandling) {
  std::string err;
  EXPECT_NE(Run({"query", "/tmp/ddctool_no_such.snap", "--range", "1,1"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("cannot load"), std::string::npos);

  EXPECT_NE(Run({"create", cube_path_}, nullptr, &err), 0);  // Missing dims.
  EXPECT_NE(Run({"create", "--dims", "2", "--side", "100", cube_path_},
                nullptr, &err),
            0);  // Bad side.
  // A fanout the snapshot would refuse to reload, or one that wraps when
  // narrowed to int, is rejected before any cube is written.
  for (const char* fanout : {"1", "2000", "4294967296", "4294967298"}) {
    SCOPED_TRACE(fanout);
    EXPECT_NE(Run({"create", "--dims", "2", "--fanout", fanout, cube_path_},
                  nullptr, &err),
              0);
    EXPECT_NE(err.find("--fanout must be in [2, 1024]"), std::string::npos);
  }
  // A present flag whose value does not parse is an error, not an absent
  // flag that falls back to its default.
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--fanout", "abc"},
           {"--elide", "x"},
           {"--side", "99999999999999999999"},
           {"--fenwick", "yes"}}) {
    SCOPED_TRACE(flag + " " + value);
    EXPECT_NE(Run({"create", "--dims", "2", flag, value, cube_path_}, nullptr,
                  &err),
              0);
    EXPECT_NE(err.find("flag " + flag + " has a malformed value"),
              std::string::npos);
  }
  for (const auto& [args, flag] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"stats", "--ops", "many"}, "--ops"},
           {{"stats", "--delta", "yes"}, "--delta"},
           {{"explain", "--side", "q", "SUM"}, "--side"},
           {{"heatmap", "--cached", "maybe"}, "--cached"},
           {{"faultrun", "--base", cube_path_, "--seed", "s"}, "--seed"}}) {
    SCOPED_TRACE(args[0] + " " + flag);
    EXPECT_EQ(Run(args, nullptr, &err), 2);
    EXPECT_NE(err.find("flag " + flag + " has a malformed value"),
              std::string::npos);
  }
  EXPECT_FALSE(std::ifstream(cube_path_).good());
  ASSERT_EQ(Run({"create", "--dims", "2", "--fanout", "1024", cube_path_}), 0);
  std::string out;
  ASSERT_EQ(Run({"info", cube_path_}, &out), 0);  // Reloads.
  EXPECT_NE(out.find("fanout=1024"), std::string::npos);

  EXPECT_NE(Run({"definitely-not-a-command"}, nullptr, &err), 0);
  EXPECT_NE(err.find("unknown command"), std::string::npos);

  ASSERT_EQ(Run({"create", "--dims", "2", cube_path_}), 0);
  EXPECT_NE(Run({"add", cube_path_, "1", "2"}, nullptr, &err), 0);  // Arity.
  EXPECT_NE(Run({"query", cube_path_, "--range", "1:2"}, nullptr, &err), 0);
}

TEST_F(DdcToolTest, SelectRunsQueries) {
  ASSERT_EQ(Run({"create", "--dims", "2", cube_path_}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "3", "4", "100"}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "5", "4", "50"}), 0);
  ASSERT_EQ(Run({"add", cube_path_, "5", "9", "7"}), 0);

  std::string out;
  ASSERT_EQ(Run({"select", cube_path_, "SUM WHERE d1 = 4"}, &out), 0);
  EXPECT_NE(out.find("150"), std::string::npos);

  ASSERT_EQ(Run({"select", cube_path_, "SUM GROUP BY d0 SIZE 4"}, &out), 0);
  EXPECT_NE(out.find("[0, 3]"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  EXPECT_NE(out.find("57"), std::string::npos);  // d0 in [4,7]: 50 + 7.

  std::string err;
  EXPECT_NE(Run({"select", cube_path_, "COUNT"}, nullptr, &err), 0);
  EXPECT_NE(err.find("MeasureCube"), std::string::npos);
  EXPECT_NE(Run({"select", cube_path_, "garbage"}, nullptr, &err), 0);
  EXPECT_NE(Run({"select", cube_path_}, nullptr, &err), 0);
}

TEST_F(DdcToolTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

// Counts occurrences of `needle` in `text`.
size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(DdcToolTest, StatsRendersUnifiedMetricSurface) {
  obs::SetEnabled(true);
  if (!obs::Enabled()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  std::string out;
  ASSERT_EQ(Run({"stats", "--ops", "200", "--format", "text"}, &out), 0);
  // At least 12 distinct metrics across every instrumented namespace.
  EXPECT_GE(CountOf(out, "# TYPE "), size_t{12});
  for (const char* ns :
       {"ddc_", "sharded_", "threadpool_", "arena_", "wal_"}) {
    EXPECT_NE(out.find(ns), std::string::npos) << "namespace " << ns;
  }
  EXPECT_NE(out.find("_p50 "), std::string::npos);
  EXPECT_NE(out.find("_p99 "), std::string::npos);
  // The range-add journal scan counter (DESIGN.md §12).
  EXPECT_NE(out.find("ddc_query_overlay_journal_boxes"), std::string::npos);
  // The workload cube's face-hierarchy census (2-D: B_c faces, no nested
  // cores).
  EXPECT_NE(out.find("ddc_structure_bc_faces "), std::string::npos);
  EXPECT_EQ(out.find("ddc_structure_bc_faces 0\n"), std::string::npos);
  EXPECT_NE(out.find("ddc_structure_nested_cores 0\n"), std::string::npos);
  EXPECT_NE(out.find("ddc_structure_leaf_faces 0\n"), std::string::npos);
  EXPECT_NE(out.find("ddc_structure_arena_bytes_used "), std::string::npos);
  EXPECT_EQ(out.find("ddc_structure_arena_bytes_used 0\n"),
            std::string::npos);
  EXPECT_NE(out.find("ddc_structure_arena_bytes_reserved "),
            std::string::npos);

  // JSON form carries the same namespaces, dotted, with percentiles.
  ASSERT_EQ(Run({"stats", "--ops", "200", "--format", "json"}, &out), 0);
  for (const char* key :
       {"\"ddc.", "\"sharded.", "\"threadpool.", "\"arena.", "\"wal.",
        "\"p50\":", "\"p99\":"}) {
    EXPECT_NE(out.find(key), std::string::npos) << "key " << key;
  }
  // Workload determinism: the machine-independent counters agree between
  // the two runs (both runs reset the registry first).
  std::string again;
  ASSERT_EQ(Run({"stats", "--ops", "200", "--format", "json"}, &again), 0);
  const size_t counters_pos = again.find("\"histograms\"");
  ASSERT_NE(counters_pos, std::string::npos);
  EXPECT_EQ(out.substr(0, counters_pos), again.substr(0, counters_pos));

  std::string err;
  EXPECT_NE(Run({"stats", "--format", "yaml"}, nullptr, &err), 0);
  EXPECT_NE(Run({"stats", "--side", "3"}, nullptr, &err), 0);
}

TEST_F(DdcToolTest, StatsDeltaModeReportsWindowedCounterRates) {
  obs::SetEnabled(true);
  if (!obs::Enabled()) GTEST_SKIP() << "built with DDC_OBS=OFF";
  std::string out;
  ASSERT_EQ(Run({"stats", "--ops", "64", "--delta", "1"}, &out), 0);
  EXPECT_NE(out.find("# stats delta"), std::string::npos);
  EXPECT_NE(out.find("window_ns="), std::string::npos);
  // Windowed counter lines: "name +delta (rate/s)".
  EXPECT_NE(out.find("ddc.nodes_visited +"), std::string::npos);
  EXPECT_NE(out.find("/s)"), std::string::npos);

  std::string json, again;
  ASSERT_EQ(Run({"stats", "--ops", "64", "--delta", "1", "--format", "json"},
                &json),
            0);
  EXPECT_EQ(json.find("{\"window_ns\": "), 0u);
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"ddc.nodes_visited\": {\"delta\": "),
            std::string::npos);
  // The deltas themselves are workload-determined: a second run reports the
  // same counter names and deltas (rates differ with wall time).
  ASSERT_EQ(Run({"stats", "--ops", "64", "--delta", "1", "--format", "json"},
                &again),
            0);
  const auto delta_field = [](const std::string& text) {
    const size_t at = text.find("\"ddc.nodes_visited\"");
    EXPECT_NE(at, std::string::npos);
    if (at == std::string::npos) return std::string();
    return text.substr(at, text.find(", \"per_sec\"", at) - at);
  };
  EXPECT_EQ(delta_field(json), delta_field(again));
  EXPECT_FALSE(delta_field(json).empty());
}

TEST_F(DdcToolTest, ExplainCommandPrintsPlanAndAnalyzeExecutes) {
  std::string out;
  // The ANALYZE form prints both the planned decomposition and the executed
  // ledger section.
  ASSERT_EQ(Run({"explain",
                 "EXPLAIN ANALYZE SUM GROUP BY d0 SIZE 2 WHERE d1 IN [1, 5]",
                 "--dims", "2", "--side", "8", "--ops", "64"},
                &out),
            0);
  EXPECT_EQ(out.find("EXPLAIN ANALYZE\n"), 0u);
  EXPECT_NE(out.find("plan:"), std::string::npos);
  EXPECT_NE(out.find("executed:"), std::string::npos);
  EXPECT_NE(out.find("corner terms: "), std::string::npos);
  EXPECT_NE(out.find("kernel path: "), std::string::npos);

  // A bare statement gets the EXPLAIN prefix added for free.
  ASSERT_EQ(Run({"explain", "SUM", "--ops", "32"}, &out), 0);
  EXPECT_EQ(out.find("EXPLAIN\n"), 0u);
  EXPECT_EQ(out.find("executed:"), std::string::npos);

  std::string err;
  EXPECT_EQ(Run({"explain", "NOT A STATEMENT"}, nullptr, &err), 1);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(Run({"explain"}, nullptr, &err), 2);  // Usage: missing statement.
}

TEST_F(DdcToolTest, HeatmapCommandRendersDeterministicSketch) {
  std::string text, json, both;
  ASSERT_EQ(Run({"heatmap", "--ops", "64", "--format", "text"}, &text), 0);
  ASSERT_EQ(Run({"heatmap", "--ops", "64", "--format", "json"}, &json), 0);
  ASSERT_EQ(Run({"heatmap", "--ops", "64", "--format", "both"}, &both), 0);
  if (obs::Enabled()) {
    EXPECT_NE(text.find("workload_read_ops"), std::string::npos);
    EXPECT_NE(text.find("workload_mutation_ops"), std::string::npos);
    EXPECT_NE(text.find("workload_read_hot{rank=\"0\""), std::string::npos);
    EXPECT_NE(json.find("\"reads\": {"), std::string::npos);
    EXPECT_NE(json.find("\"hot\": ["), std::string::npos);
    EXPECT_NE(both.find("workload_read_ops"), std::string::npos);
    EXPECT_NE(both.find("\"reads\": {"), std::string::npos);
    // The seeded workload is deterministic, so the rendered sketch is too.
    std::string again;
    ASSERT_EQ(Run({"heatmap", "--ops", "64", "--format", "text"}, &again), 0);
    EXPECT_EQ(text, again);
  }
  std::string err;
  EXPECT_NE(Run({"heatmap", "--format", "yaml"}, nullptr, &err), 0);
}

TEST_F(DdcToolTest, FlightrecCommandDumpsRingInlineAndToFile) {
  std::string out;
  ASSERT_EQ(Run({"flightrec", "--ops", "8"}, &out), 0);
  if (obs::Enabled()) {
    EXPECT_NE(out.find("\"total\": 8"), std::string::npos);
    EXPECT_NE(out.find("\"records\": ["), std::string::npos);
    EXPECT_NE(out.find("\"stmt_hash\": "), std::string::npos);
  }

  const std::string dump_path = "/tmp/ddctool_test_flightrec.json";
  std::remove(dump_path.c_str());
  ASSERT_EQ(Run({"flightrec", "--ops", "8", "--dump", dump_path}, &out), 0);
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string dump = contents.str();
  EXPECT_EQ(dump.front(), '{');
  EXPECT_NE(dump.find("\"crash_site\": \"ddctool flightrec\""),
            std::string::npos);
  std::remove(dump_path.c_str());
}

TEST_F(DdcToolTest, FaultRunCompletesAndResumesWithoutFaults) {
  const std::string base = "/tmp/ddctool_test_faultrun";
  for (const char* suffix : {".snap", ".log", ".acks"}) {
    std::remove((base + suffix).c_str());
  }

  // A clean run (no faults armed) applies the whole deterministic workload
  // and verifies it against the shadow cube.
  std::string out;
  ASSERT_EQ(Run({"faultrun", "--base", base, "--batches", "20", "--seed",
                 "5"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("completed batches=20"), std::string::npos) << out;

  // Re-running resumes from the acked prefix (everything), replays nothing
  // new, and re-verifies.
  ASSERT_EQ(Run({"faultrun", "--base", base, "--batches", "20", "--seed",
                 "5"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("recovered acked=20"), std::string::npos) << out;
  EXPECT_NE(out.find("completed batches=20"), std::string::npos) << out;

  // Usage errors are exit code 2 with a diagnostic, not a crash.
  std::string err;
  EXPECT_EQ(Run({"faultrun"}, nullptr, &err), 2);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(Run({"faultrun", "--base", base, "--dims", "0"}, nullptr, &err),
            2);

  for (const char* suffix : {".snap", ".log", ".acks"}) {
    std::remove((base + suffix).c_str());
  }
}

}  // namespace
}  // namespace tools
}  // namespace ddc
