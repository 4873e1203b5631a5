// Artifact loaders for the diff attribution (perf/diff_io.hpp) on
// handwritten documents: family sniffing, each loader's RunSummary
// reconstruction, transcript recovery, and the end-to-end diff_artifacts
// path including the cross-family note and world-mismatch flag.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/diff.hpp"
#include "perf/diff_io.hpp"
#include "perf/json.hpp"

namespace hmca::perf {
namespace {

// A minimal stats document: one invocation with critical-path steps (one
// task step, one wait step), utilization rails and a counter.
const char* kStatsDoc = R"({
  "bench": "osu_allgather",
  "provenance": {"git_sha": "abc1234", "seed": "42"},
  "invocations": [
    {
      "op": "allgather", "subject": "mha", "msg_bytes": 65536,
      "latency_us": 200.0, "phase_overlap_fraction": 0.25,
      "world": "nodes=2,ppn=2,hcas=2,sockets=1",
      "selector_decisions": ["allgather=ring,cost"],
      "critical_path": {
        "total_us": 150.0,
        "by_phase_us": {"phase1": 50.0, "phase2": 100.0},
        "steps": [
          {"rank": 0, "kind": "task", "t0_us": 0.0, "dur_us": 100.0,
           "peer": -1, "bytes": 65536, "label": "task:rdma:hca b1#c2",
           "phase": "phase2"},
          {"rank": 0, "kind": "cma_copy", "t0_us": 100.0, "dur_us": 50.0,
           "peer": -1, "bytes": 65536, "label": "", "phase": "phase1"}
        ]
      },
      "utilization": {
        "wall_us": 200.0,
        "rails": [
          {"node": 0, "rail": 0, "busy_frac": 0.5, "bytes": 1000},
          {"node": 0, "rail": 1, "busy_frac": 0.25, "bytes": 500}
        ],
        "rail_phases": [
          {"phase": "phase2", "node": 0, "rail": 1, "busy_us": 50.0}
        ]
      },
      "metrics": {"counters": [{"name": "net.retries", "value": 3}]}
    }
  ]
})";

const char* kBenchDoc = R"({
  "format": "hmca-bench-1",
  "campaign": "default",
  "label": "seed",
  "environment": {"compiler": "g++"},
  "scenarios": [
    {
      "id": "fig13", "figure": "fig13", "kind": "allgather",
      "subject": "mha", "nodes": 2, "ppn": 2, "hcas": 2, "topo": "",
      "points": [
        {"x": 65536, "decision": "allgather=ring,cost",
         "metrics": {"latency_us": 200.0, "critical_path_us": 150.0,
                     "cp_phase_phase2_us": 100.0,
                     "cp_class_nic_us": 100.0,
                     "cp_cell_phase2_nic_us": 100.0}}
      ]
    }
  ]
})";

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(DiffIo, SniffsAllThreeFamilies) {
  EXPECT_EQ(sniff_artifact(Json::parse(kStatsDoc)), "stats");
  EXPECT_EQ(sniff_artifact(Json::parse(kBenchDoc)), "bench");
  EXPECT_EQ(sniff_artifact(Json::parse(R"({"traceEvents": []})")), "trace");
  EXPECT_THROW(sniff_artifact(Json::parse(R"({"foo": 1})")),
               std::invalid_argument);
}

TEST(DiffIo, LoadsStatsRunWithTaskAwareClasses) {
  const LoadedRun lr = load_stats_run(Json::parse(kStatsDoc), "stats.json");
  EXPECT_EQ(lr.format, "stats");
  EXPECT_EQ(lr.label, "osu_allgather");
  ASSERT_EQ(lr.provenance.size(), 2u);
  EXPECT_EQ(lr.provenance[0].first, "git_sha");
  ASSERT_EQ(lr.runs.size(), 1u);
  const obs::RunSummary& rs = lr.runs[0];
  EXPECT_EQ(rs.key(), "allgather/mha/65536");
  EXPECT_EQ(rs.world, "nodes=2,ppn=2,hcas=2,sockets=1");
  EXPECT_NEAR(rs.latency_us, 200, 1e-12);
  EXPECT_NEAR(rs.critical_path_us, 150, 1e-12);
  EXPECT_NEAR(rs.phase_us.at("phase2"), 100, 1e-12);
  // The task step classifies via its label token (rdma -> nic), the
  // cma_copy step via its kind (-> shm).
  EXPECT_NEAR(rs.resource_us.at("nic"), 100, 1e-12);
  EXPECT_NEAR(rs.resource_us.at("shm"), 50, 1e-12);
  EXPECT_NEAR(rs.phase_resource_us.at("phase2").at("nic"), 100, 1e-12);
  // Chunk suffix stripped from the task label.
  EXPECT_NEAR(rs.task_us.at("task:rdma:hca b1"), 100, 1e-12);
  // busy_frac scales by wall_us.
  EXPECT_NEAR(rs.rail_busy_us.at("node0/rail0"), 100, 1e-12);
  EXPECT_NEAR(rs.rail_busy_us.at("node0/rail1"), 50, 1e-12);
  EXPECT_NEAR(rs.phase_rail_busy_us.at("phase2").at("node0/rail1"), 50,
              1e-12);
  EXPECT_NEAR(rs.counters.at("net.retries"), 3, 1e-12);
  ASSERT_EQ(rs.decisions.size(), 1u);
  EXPECT_EQ(rs.decisions[0], "allgather=ring,cost");
}

TEST(DiffIo, LoadsBenchRunWithReconstructedWorld) {
  const LoadedRun lr = load_bench_run(Json::parse(kBenchDoc), "bench.json");
  EXPECT_EQ(lr.format, "bench");
  EXPECT_EQ(lr.label, "seed");
  ASSERT_FALSE(lr.provenance.empty());
  EXPECT_EQ(lr.provenance[0].first, "campaign");
  ASSERT_EQ(lr.runs.size(), 1u);
  const obs::RunSummary& rs = lr.runs[0];
  // Subject "mha" is the selector default and is not appended, so the key
  // matches a stats run of the same scenario family.
  EXPECT_EQ(rs.key(), "allgather/fig13/65536");
  // The reconstructed fingerprint must equal what a stats run of the same
  // shape carries (2 nodes x 2 ppn, dual rail).
  EXPECT_EQ(rs.world, "nodes=2,ppn=2,hcas=2,sockets=1");
  EXPECT_NEAR(rs.phase_resource_us.at("phase2").at("nic"), 100, 1e-12);
  ASSERT_EQ(rs.decisions.size(), 1u);
  EXPECT_EQ(rs.decisions[0], "allgather=ring,cost");
}

TEST(DiffIo, LoadsTraceRunThroughLiveSummarizer) {
  const char* doc = R"({
    "traceEvents": [
      {"ph": "M", "name": "process_name"},
      {"ph": "X", "tid": 0, "ts": 0.0, "dur": 100.0, "cat": "task",
       "args": {"kind": "task", "peer": -1, "bytes": 65536,
                "label": "task:rdma:hca b1#c0"}},
      {"ph": "X", "tid": 0, "ts": 0.0, "dur": 150.0, "cat": "phase",
       "args": {"kind": "phase", "label": "phase2"}}
    ]
  })";
  const LoadedRun lr = load_trace_run(Json::parse(doc), "trace.json");
  ASSERT_EQ(lr.runs.size(), 1u);
  const obs::RunSummary& rs = lr.runs[0];
  // Wall = latest span end = the 150 us phase window.
  EXPECT_NEAR(rs.latency_us, 150, 1e-6);
  EXPECT_NEAR(rs.resource_us.at("nic"), 100, 1e-6);
  EXPECT_NEAR(rs.phase_resource_us.at("phase2").at("nic"), 100, 1e-6);
}

TEST(DiffIo, LoadRunArtifactRecoversStatsTranscript) {
  const std::string path = write_temp(
      "diffio_transcript.txt",
      "# OSU latency table\n64 1.23\n128 2.34\n\n" + std::string(kStatsDoc) +
          "\n");
  const LoadedRun lr = load_run_artifact(path);
  EXPECT_EQ(lr.format, "stats");
  ASSERT_EQ(lr.runs.size(), 1u);
  EXPECT_NEAR(lr.runs[0].latency_us, 200, 1e-12);
}

TEST(DiffIo, DiffArtifactsCrossFamilyAlignsAndNotes) {
  // A stats run against a bench run: keys differ ("mha" vs "fig13"
  // subject), so nothing aligns — but the cross-family note and both
  // provenance blocks must still surface.
  const std::string a = write_temp("diffio_a.json", kStatsDoc);
  const std::string b = write_temp("diffio_b.json", kBenchDoc);
  const obs::DiffReport rep = diff_artifacts(a, b);
  EXPECT_EQ(rep.base_label, a);
  EXPECT_EQ(rep.next_label, b);
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes[0].find("cross-family diff"), std::string::npos);
  EXPECT_FALSE(rep.base_provenance.empty());
  EXPECT_FALSE(rep.next_provenance.empty());
}

TEST(DiffIo, DiffArtifactsFlagsWorldMismatch) {
  // Same key, different world: the pair aligns but is flagged as a shape
  // change rather than attributed as a regression.
  std::string next_doc = kStatsDoc;
  const std::string from = "nodes=2,ppn=2,hcas=2,sockets=1";
  next_doc.replace(next_doc.find(from), from.size(),
                   "nodes=4,ppn=2,hcas=2,sockets=1");
  const std::string a = write_temp("diffio_w1.json", kStatsDoc);
  const std::string b = write_temp("diffio_w2.json", next_doc);
  const obs::DiffReport rep = diff_artifacts(a, b);
  ASSERT_EQ(rep.invocations.size(), 1u);
  EXPECT_TRUE(rep.has_world_mismatch());
}

TEST(DiffIo, OutOfRangeShapeIsAJsonError) {
  // A node count no int holds must be rejected, not cast (undefined
  // behaviour) into a world fingerprint.
  std::string doc = kBenchDoc;
  const std::string nodes = R"("nodes": 2)";
  doc.replace(doc.find(nodes), nodes.size(), R"("nodes": 1e300)");
  EXPECT_THROW(load_bench_run(Json::parse(doc), "bench.json"), JsonError);
}

TEST(DiffIo, IdenticalArtifactsDiffToNoAttributions) {
  const std::string a = write_temp("diffio_same_a.json", kStatsDoc);
  const std::string b = write_temp("diffio_same_b.json", kStatsDoc);
  const obs::DiffReport rep = diff_artifacts(a, b);
  ASSERT_EQ(rep.invocations.size(), 1u);
  EXPECT_EQ(rep.invocations[0].delta_us, 0.0);
  for (const auto& attr : rep.invocations[0].attributions) {
    EXPECT_NE(attr.unit, "us") << attr.category << " " << attr.name;
  }
  // Deterministic bytes for the loaded-and-diffed report too.
  std::ostringstream j1, j2;
  rep.write_json(j1);
  diff_artifacts(a, b).write_json(j2);
  EXPECT_EQ(j1.str(), j2.str());
}

}  // namespace
}  // namespace hmca::perf
