// Critical-path analyzer on hand-built span graphs where the longest
// dependency chain is known by construction.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/critical_path.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {
namespace {

using trace::Kind;
using trace::Span;

// Two ranks, three phases: rank 0 copies in (phase1, 2 us), ships the data
// over the NIC to rank 1 (phase2, 4 us), rank 1 copies out (phase3, 3 us).
// The nic_xfer's peer edge is what lets the walk jump from rank 1's
// copy_out back to rank 0.
std::vector<Span> pipeline_spans() {
  return {
      {0, Kind::kPhase, 0.0, 2e-6, -1, 0, "phase1"},
      {0, Kind::kPhase, 2e-6, 6e-6, -1, 0, "phase2"},
      {1, Kind::kPhase, 4e-6, 9e-6, -1, 0, "phase3"},
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 100, ""},
      {0, Kind::kNicXfer, 2e-6, 6e-6, 1, 400, ""},
      {1, Kind::kCopyOut, 6e-6, 9e-6, -1, 300, ""},
  };
}

TEST(CriticalPath, FollowsPeerEdgesAcrossRanks) {
  const auto rep = analyze_critical_path(pipeline_spans());
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.steps[0].kind, Kind::kCopyIn);
  EXPECT_EQ(rep.steps[1].kind, Kind::kNicXfer);
  EXPECT_EQ(rep.steps[2].kind, Kind::kCopyOut);
  EXPECT_EQ(rep.steps[0].rank, 0);
  EXPECT_EQ(rep.steps[2].rank, 1);
  EXPECT_NEAR(rep.total, 9e-6, 1e-12);
}

TEST(CriticalPath, AttributesStepsToEnclosingPhases) {
  const auto rep = analyze_critical_path(pipeline_spans());
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.steps[0].phase, "phase1");
  EXPECT_EQ(rep.steps[1].phase, "phase2");
  EXPECT_EQ(rep.steps[2].phase, "phase3");
  EXPECT_EQ(rep.dominant_kind, "nic_xfer");
  EXPECT_EQ(rep.dominant_phase, "phase2");
  EXPECT_NEAR(rep.by_phase.at("phase2"), 4e-6, 1e-12);
}

TEST(CriticalPath, SummaryNamesDominantKindAndPhase) {
  const auto s = analyze_critical_path(pipeline_spans()).summary();
  EXPECT_NE(s.find("nic_xfer"), std::string::npos) << s;
  EXPECT_NE(s.find("phase2"), std::string::npos) << s;
}

TEST(CriticalPath, WriteJsonCarriesDominantFields) {
  std::ostringstream os;
  analyze_critical_path(pipeline_spans()).write_json(os, 2);
  const std::string j = os.str();
  EXPECT_EQ(j.rfind("  {", 0), 0u);  // indent applies to the first line too
  EXPECT_NE(j.find("\"dominant_kind\": \"nic_xfer\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"dominant_phase\": \"phase2\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"total_us\": 9.000"), std::string::npos) << j;
}

TEST(CriticalPath, EmptySpanStreamYieldsEmptyReport) {
  const auto rep = analyze_critical_path({});
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.summary(), "critical path: no spans");
}

TEST(CriticalPath, PureWaitPathFallsBackToWaitKind) {
  std::vector<Span> spans = {
      {0, Kind::kWait, 0.0, 5e-6, -1, 0, ""},
  };
  const auto rep = analyze_critical_path(spans);
  ASSERT_EQ(rep.steps.size(), 1u);
  EXPECT_EQ(rep.dominant_kind, "wait");
}

TEST(CriticalPath, NeverRevisitsASpanShorterThanTheTolerance) {
  // Three identical spans shorter than the walk's 1e-12 s tolerance: each
  // "ended by the time" the others started. The chain takes each once; a
  // walk that may revisit alternates a, b, a, b and counts them twice.
  std::vector<Span> spans = {
      {0, Kind::kPhase, 0.0, 1e-6, -1, 0, "phase1"},
      {0, Kind::kCopyIn, 0.0, 1e-13, -1, 0, "a"},
      {0, Kind::kCopyIn, 0.0, 1e-13, -1, 0, "b"},
      {0, Kind::kCopyIn, 0.0, 1e-13, -1, 0, "c"},
  };
  const auto rep = analyze_critical_path(spans);
  ASSERT_EQ(rep.steps.size(), 3u);
  // Walked back from "a" (first of the latest ends), lowest index first.
  EXPECT_EQ(rep.steps[0].label, "c");
  EXPECT_EQ(rep.steps[1].label, "b");
  EXPECT_EQ(rep.steps[2].label, "a");
  EXPECT_DOUBLE_EQ(rep.total, 3e-13);
  EXPECT_DOUBLE_EQ(rep.by_phase.at("phase1"), 3e-13);
}

TEST(CriticalPath, OverlapFractionOfPipelinedPhases) {
  // phase2 union [2,6] us, phase3 union [4,9] us: 2 of phase3's 5 us are
  // overlapped -> 0.4.
  EXPECT_NEAR(phase_overlap_fraction(pipeline_spans()), 0.4, 1e-9);
}

TEST(CriticalPath, OverlapFractionZeroWithoutPhase3) {
  std::vector<Span> spans = {
      {0, Kind::kPhase, 0.0, 2e-6, -1, 0, "phase2"},
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 64, ""},
  };
  EXPECT_DOUBLE_EQ(phase_overlap_fraction(spans), 0.0);
}

TEST(CriticalPath, OverlapFractionOfInterleavedIntervals) {
  // phase2 union [0,2] [4,7] [8,10] us (the first two spans merge), phase3
  // union [1,5] [6,9] [11,12] us, out of order and across ranks. Overlaps:
  // [1,2] + [4,5] + [6,7] + [8,9] = 4 us of phase3's 4 + 3 + 1 = 8 us.
  std::vector<Span> spans = {
      {1, Kind::kPhase, 6e-6, 9e-6, -1, 0, "phase3"},
      {0, Kind::kPhase, 8e-6, 10e-6, -1, 0, "phase2"},
      {0, Kind::kPhase, 0.0, 1e-6, -1, 0, "phase2"},
      {1, Kind::kPhase, 11e-6, 12e-6, -1, 0, "phase3"},
      {2, Kind::kPhase, 1e-6, 2e-6, -1, 0, "phase2"},
      {1, Kind::kPhase, 1e-6, 5e-6, -1, 0, "phase3"},
      {0, Kind::kPhase, 4e-6, 7e-6, -1, 0, "phase2"},
  };
  EXPECT_NEAR(phase_overlap_fraction(spans), 0.5, 1e-12);
}

}  // namespace
}  // namespace hmca::obs
