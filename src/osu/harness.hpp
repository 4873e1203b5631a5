// OSU-micro-benchmark-style measurement harness over the simulator.
//
// Every measurement builds a fresh deterministic world, runs the operation
// once (virtual time is exact, so warmup/averaging loops are unnecessary)
// and reports the completion time of the slowest rank — the quantity the
// OSU collective tests report as max latency. All four collective families
// run through one runner (a data-free world, one rank coroutine per rank in
// rank order); they differ only in their per-rank call. Instrumentation
// goes to the `obs::Sink` argument; tracer-based tools pass an
// obs::CollectSink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/spec.hpp"
#include "mpi/datatype.hpp"
#include "obs/sink.hpp"

namespace hmca::osu {

/// Latency (seconds) of one Allgather of `msg` bytes per process, with the
/// run's spans and metrics delivered to `sink`.
double measure_allgather(hw::ClusterSpec spec, const coll::AllgatherFn& fn,
                         std::size_t msg, obs::Sink& sink = obs::null_sink());

/// Latency (seconds) of one Allreduce of `bytes` (float32 sum).
double measure_allreduce(hw::ClusterSpec spec, const coll::AllreduceFn& fn,
                         std::size_t bytes, obs::Sink& sink = obs::null_sink());

/// Latency (seconds) of one Alltoall of `msg` bytes per (src, dst) pair.
double measure_alltoall(hw::ClusterSpec spec, const coll::AlltoallFn& fn,
                        std::size_t msg, obs::Sink& sink = obs::null_sink());

/// Latency (seconds) of one Reduce-scatter over `bytes` (float32 sum);
/// rank r keeps its coll::chunk_range(count, N, r) share.
double measure_reduce_scatter(hw::ClusterSpec spec,
                              const coll::ReduceScatterFn& fn,
                              std::size_t bytes,
                              obs::Sink& sink = obs::null_sink());

/// One uninstrumented Allgather run with the engine's dispatched-event
/// count alongside the simulated latency — the perf subsystem's wall-clock
/// probe divides `events` by host time to get sim events/sec.
struct CountedRun {
  double sim_seconds = 0;
  std::uint64_t events = 0;
};

CountedRun measure_allgather_counted(hw::ClusterSpec spec,
                                     const coll::AllgatherFn& fn,
                                     std::size_t msg);

/// Ping-pong latency (seconds, one direction) between ranks `a` and `b`.
double measure_pt2pt_latency(hw::ClusterSpec spec, int a, int b,
                             std::size_t msg);

/// Streaming bandwidth (bytes/s) from rank `a` to `b`: a window of
/// `window` back-to-back nonblocking sends, OSU osu_bw style.
double measure_pt2pt_bandwidth(hw::ClusterSpec spec, int a, int b,
                               std::size_t msg, int window = 64);

// ---- Table / CSV output ----

struct Table {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;

  void add_row(std::vector<std::string> row) { rows.push_back(std::move(row)); }
  void print(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
};

/// "256", "16K", "4M"-style size formatting used by the paper's axes.
std::string format_size(std::size_t bytes);
/// Microseconds with sensible precision.
std::string format_us(double seconds);
/// "1.42x" speedup formatting.
std::string format_ratio(double r);

/// The standard OSU-style size sweep [lo, hi], doubling.
std::vector<std::size_t> size_sweep(std::size_t lo, std::size_t hi);

}  // namespace hmca::osu
