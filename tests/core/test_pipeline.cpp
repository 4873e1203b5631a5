// Structural claims of the dataflow refactor on MHA worlds: the phase-1
// tail no longer dominates the critical path at scale, phase-2/3 overlap
// is strictly higher than the barriered baseline (with the telemetry
// cross-check reconciling), and streaming never loses to barriers.
// `ctest -L dataflow` runs this suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "coll/graph.hpp"
#include "coll/registry.hpp"
#include "core/hierarchical.hpp"
#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/utilization.hpp"
#include "osu/harness.hpp"
#include "trace/trace.hpp"

namespace hmca::core {
namespace {

coll::AllgatherFn fn_graph() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    return allgather_hierarchical(c, r, s, rv, m, ip, HierOptions{});
  };
}

coll::AllgatherFn fn_barrier() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    HierOptions o;
    o.overlap = false;
    return allgather_hierarchical(c, r, s, rv, m, ip, o);
  };
}

struct Capture {
  trace::Tracer tracer;
  obs::Metrics metrics;
  std::vector<obs::ResourceSample> samples;
  double seconds = 0;
};

void run_mha(int nodes, int ppn, std::size_t msg, const coll::AllgatherFn& fn,
             Capture& c) {
  obs::CollectSink sink(&c.tracer, &c.metrics, &c.samples);
  c.seconds =
      osu::measure_allgather(hw::ClusterSpec::thor(nodes, ppn), fn, msg, sink);
}

// ---- Satellite: Phase-1 tail vs. critical path at 512 ranks ----

TEST(Pipeline, Phase1NoLongerDominatesCriticalPathAt512Ranks) {
  // 16 nodes x 32 ppn. Under strict barriers the slowest member's shm
  // publish (phase 1) gates every leader exchange; with chunk streaming
  // the path runs through the inter-node phase instead.
  Capture c;
  run_mha(16, 32, 256 * 1024, fn_graph(), c);
  ASSERT_GT(c.seconds, 0.0);
  const auto report = obs::analyze_critical_path(c.tracer.spans());
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.dominant_phase, "phase1") << report.summary();

  const auto* depth = c.metrics.histogram("coll.pipeline_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->max, 2.0);  // chunks actually ran concurrently somewhere
}

// ---- Acceptance: overlap strictly higher than the barriered baseline ----

TEST(Pipeline, OverlapBeatsBarrierOnFig12Shape) {
  // Fig. 12 shape: 8 nodes x 32 ppn, rendezvous-sized message.
  const std::size_t msg = 512 * 1024;
  Capture graph, barrier;
  run_mha(8, 32, msg, fn_graph(), graph);
  run_mha(8, 32, msg, fn_barrier(), barrier);
  ASSERT_GT(graph.seconds, 0.0);
  ASSERT_GT(barrier.seconds, 0.0);

  const double graph_overlap =
      obs::phase_overlap_fraction(graph.tracer.spans());
  const double barrier_overlap =
      obs::phase_overlap_fraction(barrier.tracer.spans());
  EXPECT_GT(graph_overlap, barrier_overlap);
  EXPECT_GT(graph_overlap, 0.0);

  // Telemetry cross-check: the utilization sweep re-derives the overlap
  // with an independent algorithm; the two must reconcile.
  const auto util = obs::analyze_utilization(graph.tracer.spans(),
                                             graph.samples, graph.seconds);
  EXPECT_NEAR(util.phase_overlap, graph_overlap, 1e-9);

  // Streaming must not lose to the barriered baseline on its home shape.
  EXPECT_LE(graph.seconds, barrier.seconds);
}

TEST(Pipeline, StreamingNeverLosesAcrossShapes) {
  for (const auto& [nodes, ppn, msg] :
       {std::tuple{2, 4, std::size_t{65536}},
        std::tuple{4, 8, std::size_t{262144}},
        std::tuple{3, 2, std::size_t{1048576}}}) {
    const double graph = osu::measure_allgather(
        hw::ClusterSpec::thor(nodes, ppn), fn_graph(), msg);
    const double barrier = osu::measure_allgather(
        hw::ClusterSpec::thor(nodes, ppn), fn_barrier(), msg);
    EXPECT_LE(graph, barrier * 1.0001)
        << "nodes=" << nodes << " ppn=" << ppn << " msg=" << msg;
  }
}

}  // namespace
}  // namespace hmca::core
