// Cross-checks between the two observability channels: the `net` layer's
// per-rail byte counters must reconcile with the kNicXfer spans the same
// run records, and attaching a sink must not perturb the simulation.
#include <gtest/gtest.h>

#include <string>

#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {
namespace {

struct Capture {
  trace::Tracer tracer;
  Metrics metrics;
  double seconds = 0;
};

// Fig. 11 shape: one node, 8 processes, rendezvous-sized message, so the
// MHA intra-node design drives both rails through NIC loopback and every
// rail byte flows inside a kNicXfer span (no eager traffic at 1 MiB).
Capture run_fig11_point() {
  core::register_core_algorithms();
  Capture c;
  CollectSink sink(&c.tracer, &c.metrics);
  c.seconds = osu::measure_allgather(hw::ClusterSpec::thor(1, 8),
                                     profiles::mha().allgather, 1u << 20, sink);
  return c;
}

TEST(ObsReconcile, RailByteCountersMatchNicXferSpans) {
  const auto c = run_fig11_point();
  EXPECT_GT(c.seconds, 0.0);

  double span_bytes = 0;
  for (const auto& s : c.tracer.spans()) {
    if (s.kind == trace::Kind::kNicXfer) {
      span_bytes += static_cast<double>(s.bytes);
    }
  }
  const double counter_bytes = c.metrics.counter_total("net.rail.bytes");
  EXPECT_GT(counter_bytes, 0.0);
  EXPECT_DOUBLE_EQ(counter_bytes, span_bytes);
}

TEST(ObsReconcile, RailsWithTrafficShowNicBusyTime) {
  const auto c = run_fig11_point();
  // Both rails of node 0 must carry bytes (the point of the MHA design)...
  const double r0 = c.metrics.counter_value(
      "net.rail.bytes", {{"node", "0"}, {"rail", "0"}});
  const double r1 = c.metrics.counter_value(
      "net.rail.bytes", {{"node", "0"}, {"rail", "1"}});
  EXPECT_GT(r0, 0.0);
  EXPECT_GT(r1, 0.0);
  // ...and some rank must show wall-clock time attributed to the NIC.
  double busy = 0;
  for (int r = 0; r < 8; ++r) {
    busy += c.tracer.busy_time(r, trace::Kind::kNicXfer);
  }
  EXPECT_GT(busy, 0.0);
}

TEST(ObsReconcile, EveryRailSeriesCarriesNodeAndRailLabels) {
  const auto c = run_fig11_point();
  int series = 0;
  for (const auto& [key, value] : c.metrics.counters()) {
    if (key.name != "net.rail.bytes") continue;
    ++series;
    ASSERT_EQ(key.labels.size(), 2u);
    EXPECT_EQ(key.labels[0].first, "node");
    EXPECT_EQ(key.labels[1].first, "rail");
    EXPECT_GT(value, 0.0);
  }
  EXPECT_GT(series, 0);
}

TEST(ObsReconcile, NullSinkRunMatchesUninstrumentedRun) {
  core::register_core_algorithms();
  const auto spec = hw::ClusterSpec::thor(1, 8);
  const double plain =
      osu::measure_allgather(spec, profiles::mha().allgather, 1u << 20);
  const double nulled = osu::measure_allgather(
      spec, profiles::mha().allgather, 1u << 20, null_sink());
  const double observed = run_fig11_point().seconds;
  EXPECT_DOUBLE_EQ(plain, nulled);
  EXPECT_DOUBLE_EQ(plain, observed);
}

}  // namespace
}  // namespace hmca::obs
