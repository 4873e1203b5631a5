// Differential test of the indexed critical-path walk against the retained
// reference scan (critical_path_reference.hpp): on seeded random span
// streams built to hit every tie-break and filter rule, and on real
// captures, the two reports must agree field for field, bit for bit.
// `ctest -L telemetry` runs this suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/critical_path_reference.hpp"
#include "obs/registry_captures.hpp"
#include "obs/sink.hpp"
#include "osu/algo_flag.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {
namespace {

using trace::Kind;
using trace::Span;

void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same_map(const std::map<std::string, sim::Duration>& got,
                     const std::map<std::string, sim::Duration>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (auto g = got.begin(), w = want.begin(); g != got.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first) << what;
    expect_bits(g->second, w->second, what + "[" + g->first + "]");
  }
}

void expect_same_report(const std::vector<Span>& spans) {
  const CriticalPathReport got = analyze_critical_path(spans);
  const CriticalPathReport want = reference::analyze_critical_path(spans);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const auto& g = got.steps[i];
    const auto& w = want.steps[i];
    EXPECT_EQ(g.rank, w.rank);
    EXPECT_EQ(g.kind, w.kind);
    expect_bits(g.t0, w.t0, "t0");
    expect_bits(g.t1, w.t1, "t1");
    EXPECT_EQ(g.peer, w.peer);
    EXPECT_EQ(g.bytes, w.bytes);
    EXPECT_EQ(g.label, w.label);
    EXPECT_EQ(g.phase, w.phase);
  }
  expect_bits(got.total, want.total, "total");
  expect_same_map(got.by_kind, want.by_kind, "by_kind");
  expect_same_map(got.by_phase, want.by_phase, "by_phase");
  ASSERT_EQ(got.by_phase_kind.size(), want.by_phase_kind.size());
  for (auto g = got.by_phase_kind.begin(), w = want.by_phase_kind.begin();
       g != got.by_phase_kind.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    expect_same_map(g->second, w->second, "by_phase_kind[" + g->first + "]");
  }
  EXPECT_EQ(got.dominant_kind, want.dominant_kind);
  EXPECT_EQ(got.dominant_phase, want.dominant_phase);
  expect_bits(phase_overlap_fraction(spans),
              reference::phase_overlap_fraction(spans), "overlap");
}

// A random stream on a coarse time grid, so many spans end at the same
// instant, with offsets that land ends within kEps (1e-12 s) on either side
// of a predecessor bound. Mixes zero- and negative-length spans, spans
// shorter than kEps, annotations, wrapped-task containers, paper phases
// nested inside "exchange", and peers of -1 and of the span's own rank.
std::vector<Span> random_stream(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  constexpr double kGrid = 1e-6;
  constexpr double kNear[] = {0, 0, 0, 1e-13, 5e-13, 1e-12, -5e-13, 2e-12};
  const auto near = [&] { return kNear[pick(8)]; };
  constexpr Kind kLinkKinds[] = {Kind::kIsend,   Kind::kIrecv,  Kind::kWait,
                                 Kind::kCopyIn,  Kind::kCopyOut,
                                 Kind::kCmaCopy, Kind::kNicXfer,
                                 Kind::kCompute, Kind::kTask};
  const char* const kTaskLabels[] = {"task:wrapped:body", "task:wrapped",
                                     "task:send:p2#c1", "task:copy", ""};
  const char* const kPhaseLabels[] = {"phase1",     "phase2",    "phase3",
                                      "exchange",   "select:rd", "fault:kill",
                                      "phase2"};

  const int ranks = 1 + pick(6);
  const int n = 10 + pick(240);
  std::vector<Span> out;
  for (int i = 0; i < n; ++i) {
    Span s{pick(ranks), Kind::kCompute, 0, 0, -1, 0, ""};
    const int p = pick(4);
    s.peer = p == 0 ? -1 : p == 1 ? s.rank : pick(ranks);
    s.bytes = static_cast<std::size_t>(pick(4096));
    s.t0 = pick(40) * kGrid + near();
    switch (pick(6)) {
      case 0:
        s.t1 = s.t0;
        break;
      case 1:
        s.t1 = s.t0 - (1 + pick(3)) * kGrid;
        break;
      case 2:
        s.t1 = s.t0 + 1e-13;
        break;
      default:
        s.t1 = s.t0 + (1 + pick(8)) * kGrid + near();
        break;
    }
    const int k = pick(12);
    if (k < 9) {
      s.kind = kLinkKinds[k];
      if (s.kind == Kind::kTask) s.label = kTaskLabels[pick(5)];
    } else if (k < 11) {
      s.kind = Kind::kPhase;
      s.label = kPhaseLabels[pick(7)];
    } else {
      // A paper phase nested inside an exchange container, sometimes with
      // identical bounds, sometimes duplicated (ties on duration).
      const double a = pick(30) * kGrid;
      const double b = a + (2 + pick(10)) * kGrid;
      out.push_back(Span{s.rank, Kind::kPhase, a, b, -1, 0, "exchange"});
      const double in = pick(2) * kGrid;
      s.kind = Kind::kPhase;
      s.t0 = a + in;
      s.t1 = b - in + near();
      s.label = kPhaseLabels[pick(3)];
      if (pick(3) == 0) out.push_back(s);
    }
    out.push_back(s);
  }
  return out;
}

TEST(CriticalPathOracle, RandomStreams) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_report(random_stream(seed));
  }
}

TEST(CriticalPathOracle, ManySpansShorterThanTheTolerance) {
  // Every span "ended by the time" every other started: the walk must take
  // each one exactly once, lowest stream index first among equal ends.
  std::vector<Span> spans;
  for (int i = 0; i < 64; ++i) {
    spans.push_back(Span{i % 3, Kind::kCopyIn, 0.0, 1e-13, i % 5 - 1, 0,
                         std::to_string(i)});
    spans.push_back(Span{i % 3, Kind::kNicXfer, (i % 7) * 1e-16,
                         (i % 7) * 1e-16 + 1e-13, -1, 0, ""});
  }
  const CriticalPathReport rep = analyze_critical_path(spans);
  EXPECT_EQ(rep.steps.size(), spans.size());
  expect_same_report(spans);
}

TEST(CriticalPathOracle, EmptyAndLinklessStreams) {
  expect_same_report({});
  expect_same_report({
      {0, Kind::kPhase, 0.0, 1e-6, -1, 0, "phase1"},
      {0, Kind::kTask, 0.0, 1e-6, -1, 0, "task:wrapped:ring"},
      {1, Kind::kCompute, 2e-6, 2e-6, -1, 0, ""},
  });
}

class CriticalPathOracleCaptures : public ::testing::Test {
 protected:
  void SetUp() override { core::register_core_algorithms(); }

  static void expect_same_on_allgather(int nodes, int ppn, std::size_t msg,
                                       const coll::AllgatherFn& fn) {
    trace::Tracer tracer;
    CollectSink sink(&tracer);
    osu::measure_allgather(hw::ClusterSpec::thor(nodes, ppn), fn, msg, sink);
    ASSERT_FALSE(tracer.spans().empty());
    expect_same_report(tracer.spans());
  }
};

TEST_F(CriticalPathOracleCaptures, EveryRegistryEntry) {
  namespace cap = testing::captures;
  for (const auto& family :
       {cap::allgathers(), cap::allgathervs(), cap::alltoalls(),
        cap::alltoallvs(), cap::reduce_scatters(), cap::allreduces(),
        cap::bcasts()}) {
    for (const auto& c : family) {
      SCOPED_TRACE(c.algo);
      expect_same_report(c.spans);
    }
  }
}

TEST_F(CriticalPathOracleCaptures, Fig12MhaN8x32At64KiB) {
  expect_same_on_allgather(8, 32, 64 * 1024,
                           profiles::by_name("mha").allgather);
}

TEST_F(CriticalPathOracleCaptures, MhaInterBarrierN16x32At64KiB) {
  expect_same_on_allgather(16, 32, 64 * 1024,
                           osu::pinned_allgather("mha_inter_barrier"));
}

TEST_F(CriticalPathOracleCaptures, MhaN256x2At4KiB) {
  expect_same_on_allgather(256, 2, 4096, profiles::by_name("mha").allgather);
}

}  // namespace
}  // namespace hmca::obs
