// Span streams of every registered algorithm, in every collective family,
// captured on one fixed healthy trial shape. Shared by the span-coverage
// sweep (does each stream carry attributable telemetry?) and the
// critical-path oracle (does the indexed walk agree with the reference on
// each stream?).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "obs/sink.hpp"
#include "testing/conformance.hpp"
#include "trace/trace.hpp"

namespace hmca::testing::captures {

/// One fixed healthy shape: 2 nodes x 2 ranks, dual rail. Large enough to
/// exercise inter-node phases, small enough that the whole registry sweep
/// stays fast.
inline conf::Trial coverage_trial() {
  conf::Trial t;
  t.nodes = 2;
  t.ppn = 2;
  t.hcas = 2;
  t.sockets = 1;
  t.msg = 4096;
  t.in_place = false;
  t.fault_plan = "";
  t.seed = 0xc0ffee;
  t.index = 0;
  return t;
}

struct Capture {
  std::string algo;
  std::vector<trace::Span> spans;
};

/// Run `run(fn, sink)` for every applicable entry of `table` and keep its
/// spans. `applies(algo)` filters on the entry's applicability predicate.
template <typename Table, typename Applies, typename Run>
std::vector<Capture> capture_each(const Table& table, Applies applies,
                                  Run run) {
  std::vector<Capture> out;
  for (const auto& algo : table) {
    if (algo.applies && !applies(algo)) continue;
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    run(algo.fn, sink);
    out.push_back(Capture{algo.name, tracer.take_spans()});
  }
  return out;
}

inline std::vector<Capture> allgathers() {
  const conf::Trial t = coverage_trial();
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().allgathers(),
      [&](const auto& a) { return a.applies(shape, t.msg); },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_allgather(fn, t, sink);
      });
}

inline std::vector<Capture> allgathervs() {
  const conf::Trial t = coverage_trial();
  const int p = t.nodes * t.ppn;
  std::vector<std::size_t> counts;
  for (int r = 0; r < p; ++r) {
    counts.push_back(1000 + 37 * static_cast<std::size_t>(r));
  }
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().allgathervs(),
      [&](const auto& a) { return a.applies(shape, total); },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_allgatherv(fn, t, counts, &sink);
      });
}

inline std::vector<Capture> alltoalls() {
  const conf::Trial t = coverage_trial();
  const std::size_t msg = 2048;
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().alltoalls(),
      [&](const auto& a) { return a.applies(shape, msg); },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_alltoall(fn, t, msg, &sink);
      });
}

inline std::vector<Capture> alltoallvs() {
  const conf::Trial t = coverage_trial();
  const int p = t.nodes * t.ppn;
  std::vector<std::size_t> counts(static_cast<std::size_t>(p * p));
  std::size_t total = 0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      const std::size_t c = 64 * static_cast<std::size_t>(i + j + 1);
      counts[static_cast<std::size_t>(i * p + j)] = c;
      total += c;
    }
  }
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().alltoallvs(),
      [&](const auto& a) { return a.applies(shape, total); },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_alltoallv(fn, t, counts, &sink);
      });
}

inline std::vector<Capture> reduce_scatters() {
  const conf::Trial t = coverage_trial();
  const std::size_t count = 96;  // divisible by p = 4
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().reduce_scatters(),
      [&](const auto& a) {
        return a.applies(shape, count, mpi::dtype_size(mpi::Dtype::kInt32));
      },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_reduce_scatter(fn, t, count, mpi::Dtype::kInt32,
                                 mpi::ReduceOp::kSum, &sink);
      });
}

inline std::vector<Capture> allreduces() {
  const conf::Trial t = coverage_trial();
  const std::size_t count = 96;
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().allreduces(),
      [&](const auto& a) {
        return a.applies(shape, count, mpi::dtype_size(mpi::Dtype::kInt32));
      },
      [&](const auto& fn, obs::Sink& sink) {
        conf::run_allreduce(fn, t, count, mpi::Dtype::kInt32,
                            mpi::ReduceOp::kSum, &sink);
      });
}

inline std::vector<Capture> bcasts() {
  const conf::Trial t = coverage_trial();
  const auto shape = conf::shape_of(t);
  return capture_each(
      coll::Registry::instance().bcasts(),
      [&](const auto& a) { return a.applies(shape, t.msg); },
      [&](const auto& fn, obs::Sink& sink) { conf::run_bcast(fn, t, &sink); });
}

}  // namespace hmca::testing::captures
