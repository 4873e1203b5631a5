// Span-coverage conformance: every registered algorithm, in every
// collective family, must emit the telemetry the diff attribution needs —
// phase annotations and a critical path that classifies into cpu/nic/shm
// resource classes. An algorithm
// that runs silent would align against nothing in hmca-diff, so its
// regressions could never be explained; this suite makes that a test
// failure instead of a blind spot.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "obs/critical_path.hpp"
#include "obs/names.hpp"
#include "obs/registry_captures.hpp"
#include "trace/trace.hpp"

namespace hmca {
namespace {

struct Coverage {
  std::size_t spans = 0;
  std::size_t phase_spans = 0;  ///< non-annotation kPhase spans
  double cp_total_us = 0;
  double cp_classified_us = 0;  ///< path time with a non-"" resource class
};

Coverage analyze(const std::vector<trace::Span>& spans) {
  Coverage c;
  c.spans = spans.size();
  for (const auto& s : spans) {
    if (s.kind == trace::Kind::kPhase && !obs::names::is_annotation(s.label)) {
      ++c.phase_spans;
    }
  }
  const obs::CriticalPathReport cp = obs::analyze_critical_path(spans);
  c.cp_total_us = cp.total * 1e6;
  for (const auto& st : cp.steps) {
    if (*obs::names::span_resource_class(st.kind, st.label) != '\0') {
      c.cp_classified_us += (st.t1 - st.t0) * 1e6;
    }
  }
  return c;
}

/// The shared assertions: phases annotated, critical path non-empty and
/// attributable.
void expect_attributable(const std::string& family,
                         const testing::captures::Capture& capture) {
  SCOPED_TRACE(family + " '" + capture.algo + "'");
  const Coverage c = analyze(capture.spans);
  EXPECT_GT(c.spans, 0u) << "emitted no spans at all";
  EXPECT_GT(c.phase_spans, 0u) << "emitted no phase annotations";
  EXPECT_GT(c.cp_total_us, 0.0) << "critical path is empty";
  EXPECT_GT(c.cp_classified_us, 0.0)
      << "no critical-path time classifies into cpu/nic/shm/wait — "
         "hmca-diff could not attribute a regression in this algorithm";
}

class SpanCoverage : public ::testing::Test {
 protected:
  void SetUp() override { core::register_core_algorithms(); }
};

TEST_F(SpanCoverage, Allgathers) {
  for (const auto& c : testing::captures::allgathers()) {
    expect_attributable("allgather", c);
  }
}

TEST_F(SpanCoverage, Allgathervs) {
  for (const auto& c : testing::captures::allgathervs()) {
    expect_attributable("allgatherv", c);
  }
}

TEST_F(SpanCoverage, Alltoalls) {
  for (const auto& c : testing::captures::alltoalls()) {
    expect_attributable("alltoall", c);
  }
}

TEST_F(SpanCoverage, Alltoallvs) {
  for (const auto& c : testing::captures::alltoallvs()) {
    expect_attributable("alltoallv", c);
  }
}

TEST_F(SpanCoverage, ReduceScatters) {
  for (const auto& c : testing::captures::reduce_scatters()) {
    expect_attributable("reduce_scatter", c);
  }
}

TEST_F(SpanCoverage, Allreduces) {
  for (const auto& c : testing::captures::allreduces()) {
    expect_attributable("allreduce", c);
  }
}

TEST_F(SpanCoverage, Bcasts) {
  for (const auto& c : testing::captures::bcasts()) {
    expect_attributable("bcast", c);
  }
}

}  // namespace
}  // namespace hmca
