// The chunk-granular dataflow engine (coll/graph.hpp): dependency order,
// FIFO determinism, lane admission, external completions, fault retry and
// the chunk policy. `ctest -L dataflow` runs this suite.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "coll/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace hmca::coll {
namespace {

constexpr sim::Duration kTick = 1e-6;

// Task bodies are plain lambdas returning named coroutines; the coroutine
// takes everything by value / stable reference so no capture outlives its
// frame.
sim::Task<void> log_after(sim::Engine& eng, std::vector<int>& order, int id,
                          sim::Duration d) {
  if (d > 0) co_await eng.sleep(d);
  order.push_back(id);
}

sim::Task<void> drive(GraphExecutor& exec, TaskGraph& g) {
  co_await exec.run(g);
}

sim::Task<void> drive_expecting_error(GraphExecutor& exec, TaskGraph& g,
                                      bool& threw) {
  try {
    co_await exec.run(g);
  } catch (const sim::SimError&) {
    threw = true;
  }
}

TaskGraph::Body body(sim::Engine& eng, std::vector<int>& order, int id,
                     sim::Duration d = kTick) {
  return [&eng, &order, id, d] { return log_after(eng, order, id, d); };
}

TEST(TaskGraph, DependencyEdgesOrderExecution) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 0));
  const int b = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 1));
  const int c = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 2));
  g.depend(b, a);
  g.depend(c, b);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskGraph, ReadyQueueIsFifoOverCreationOrder) {
  // Four dependency-free CPU tasks on a 1-slot lane must complete in
  // creation order — this is what keeps graph execution deterministic and
  // timing-equivalent to the legacy sequential copy walk.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, i));
  }
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(exec.pipeline_depth(), 1);
}

TEST(TaskGraph, SelfEdgeAndEmptyBodyRejected) {
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, [] { return noop_task(); });
  EXPECT_THROW(g.depend(a, a), std::invalid_argument);
  EXPECT_THROW(g.add(TaskKind::kCopy, Lane::kNone, nullptr),
               std::invalid_argument);
}

TEST(GraphExecutor, ExternalDependencySatisfiedMidRun) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int t = g.add(TaskKind::kRecv, Lane::kNone, body(eng, order, 7, 0));
  g.depend_external(t);
  GraphExecutor exec(eng, obs::null_sink(), 0);

  struct Satisfier {
    static sim::Task<void> at(sim::Engine& eng, GraphExecutor& exec, int task,
                              sim::Duration when) {
      co_await eng.sleep(when);
      exec.satisfy(task);
    }
  };
  eng.spawn(drive(exec, g));
  eng.spawn(Satisfier::at(eng, exec, t, 5 * kTick));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_GE(eng.now(), 5 * kTick);  // ran only after the completion arrived
}

TEST(GraphExecutor, EarlySatisfyBeforeRunIsBuffered) {
  // A completion callback can outrun run() (zero-length recv finishing at
  // post time); the executor buffers it until the graph attaches.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int t = g.add(TaskKind::kRecv, Lane::kNone, body(eng, order, 3, 0));
  g.depend_external(t);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  exec.satisfy(t);  // before run() starts
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(GraphExecutor, DependencyCycleStallsDetectably) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 0));
  const int b = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 1));
  g.depend(a, b);
  g.depend(b, a);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(order.empty());
}

TEST(GraphExecutor, TransientFaultRetriesWithBackoff) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::Metrics metrics;
  obs::CollectSink sink(&tracer, &metrics);
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int attempt) { return attempt < 2; };
  GraphExecutor exec(eng, sink, 0, opts);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(exec.retries(), 2u);
  EXPECT_EQ(metrics.counter_value("coll.task_retries"), 2.0);
  // Backoff doubles: the success attempt starts no earlier than base + 2x.
  EXPECT_GE(eng.now(), 3 * kTaskRetryBackoff);
}

TEST(GraphExecutor, ExhaustedRetriesSurfaceTheError) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int) { return true; };
  GraphExecutor exec(eng, obs::null_sink(), 0, opts);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(exec.retries(), static_cast<std::uint64_t>(kMaxTaskRetries));
  EXPECT_TRUE(order.empty());
}

TEST(GraphExecutor, WrappedTasksNeverRetry) {
  // A wrapped task is an entire legacy collective: re-running one on a
  // single rank would desync the SPMD rendezvous, so its faults are
  // terminal (legacy semantics), with zero retries.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kWrapped, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int) { return true; };
  GraphExecutor exec(eng, obs::null_sink(), 0, opts);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(exec.retries(), 0u);
}

TEST(GraphExecutor, PipelineDepthReflectsConcurrency) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::Metrics metrics;
  obs::CollectSink sink(&tracer, &metrics);
  std::vector<int> order;
  TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add(TaskKind::kSend, Lane::kNone, body(eng, order, i));
  }
  GraphExecutor exec(eng, sink, 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(exec.pipeline_depth(), 3);
  const auto* h = metrics.histogram("coll.pipeline_depth");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->max, 3.0);
  // All three ran concurrently: wall time is one tick, not three.
  EXPECT_LT(eng.now(), 2 * kTick);
}

TEST(GraphExecutor, TaskSpansCarryKindAndChunkTags) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::CollectSink sink(&tracer);
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0),
        TaskOpts{"s2", "phase2", 5, 4096, 3});
  GraphExecutor exec(eng, sink, 0);
  eng.spawn(drive(exec, g));
  eng.run();
  bool task_span = false, phase_span = false;
  for (const auto& s : tracer.spans()) {
    if (s.kind == trace::Kind::kTask) {
      task_span = true;
      EXPECT_EQ(s.label, "task:send:s2#c5");
      EXPECT_EQ(s.bytes, 4096u);
      EXPECT_EQ(s.peer, 3);
    }
    if (s.kind == trace::Kind::kPhase && s.label == "phase2") {
      phase_span = true;
    }
  }
  EXPECT_TRUE(task_span);
  EXPECT_TRUE(phase_span);
}

TEST(GraphExecutor, IdenticalGraphsRunDeterministically) {
  const auto run_once = [] {
    sim::Engine eng;
    std::vector<int> order;
    TaskGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(g.add(i % 2 == 0 ? TaskKind::kCopy : TaskKind::kSend,
                          i % 2 == 0 ? Lane::kCpu : Lane::kNone,
                          body(eng, order, i, (i + 1) * kTick)));
    }
    g.depend(ids[4], ids[1]);
    g.depend(ids[5], ids[0]);
    GraphExecutor exec(eng, obs::null_sink(), 0);
    eng.spawn(drive(exec, g));
    eng.run();
    return std::make_pair(eng.now(), order);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- RangeProducers ----

TEST(RangeProducers, CoveringIntersectsHalfOpenRanges) {
  RangeProducers p;
  p.add(0, 100, 1);
  p.add(100, 100, 2);
  p.add(0, 0, 3);  // empty ranges never produce
  EXPECT_EQ(p.covering(0, 100), (std::vector<int>{1}));
  EXPECT_EQ(p.covering(50, 100), (std::vector<int>{1, 2}));
  EXPECT_EQ(p.covering(100, 1), (std::vector<int>{2}));
  EXPECT_TRUE(p.covering(200, 50).empty());
}

// ---- Chunk policy ----

class ChunkPolicy : public ::testing::Test {
 protected:
  void TearDown() override { set_chunk_bytes_override(-1); }
};

TEST_F(ChunkPolicy, AutoKeepsSmallTransfersWhole) {
  set_chunk_bytes_override(0);  // 0 = auto
  EXPECT_EQ(chunks_for(0), 1);
  EXPECT_EQ(chunks_for(1), 1);
  EXPECT_EQ(chunks_for(64 * 1024), 1);
  EXPECT_GE(chunks_for(64 * 1024 + 1), 2);
  EXPECT_EQ(chunks_for(16u << 20), kMaxChunks);  // large transfers cap out
}

TEST_F(ChunkPolicy, OverrideSetsGranularityAndCaps) {
  set_chunk_bytes_override(1024);
  EXPECT_EQ(chunks_for(4096), 4);
  EXPECT_EQ(chunks_for(4097), 5);
  EXPECT_EQ(chunks_for(1u << 20), kMaxChunks);  // capped, never unbounded
  set_chunk_bytes_override(-1);                 // back to auto
}

TEST_F(ChunkPolicy, ChunkRangesTileTheTransfer) {
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{4097},
                                  std::size_t{65536}, std::size_t{100001}}) {
    const int n = chunks_for(bytes);
    std::size_t expect_off = 0;
    for (int c = 0; c < n; ++c) {
      const auto [off, len] = chunk_range(bytes, n, c);
      EXPECT_EQ(off, expect_off) << "bytes=" << bytes << " chunk=" << c;
      expect_off += len;
    }
    EXPECT_EQ(expect_off, bytes) << "bytes=" << bytes;
  }
}

}  // namespace
}  // namespace hmca::coll
