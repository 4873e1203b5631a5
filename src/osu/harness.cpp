#include "osu/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace hmca::osu {

namespace {

// One rank's call of each measured family. A rank coroutine builds its own
// phantom buffers (a null pointer with a length) from the family's size
// argument `n`, so the runner below is the same for every family.

hw::BufView phantom(std::size_t bytes) { return hw::BufView{nullptr, bytes}; }

sim::Task<void> ag_rank(mpi::Comm& comm, const coll::AllgatherFn& fn, int r,
                        std::size_t msg) {
  const auto p = static_cast<std::size_t>(comm.size());
  co_await fn(comm, r, phantom(msg), phantom(msg * p), msg,
              /*in_place=*/false);
}

// Allreduce and reduce-scatter share a signature (coll::AllreduceFn ==
// coll::ReduceScatterFn): a float32 sum over one `bytes` buffer.
sim::Task<void> reduce_rank(mpi::Comm& comm, const coll::AllreduceFn& fn,
                            int r, std::size_t bytes) {
  const std::size_t count = bytes / mpi::dtype_size(mpi::Dtype::kFloat);
  co_await fn(comm, r, phantom(bytes), count, mpi::Dtype::kFloat,
              mpi::ReduceOp::kSum);
}

sim::Task<void> a2a_rank(mpi::Comm& comm, const coll::AlltoallFn& fn, int r,
                         std::size_t msg) {
  const auto p = static_cast<std::size_t>(comm.size());
  co_await fn(comm, r, phantom(msg * p), phantom(msg * p), msg);
}

template <class Fn>
using RankCall = sim::Task<void> (*)(mpi::Comm&, const Fn&, int, std::size_t);

/// The one measurement loop: a data-free world observed by `sink`, one
/// `call` coroutine per rank spawned in rank order, run to completion.
template <class Fn>
CountedRun run(hw::ClusterSpec spec, const Fn& fn, RankCall<Fn> call,
               std::size_t n, obs::Sink& sink) {
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec, sink);
  auto& comm = world.comm_world();
  for (int r = 0; r < comm.size(); ++r) eng.spawn(call(comm, fn, r, n));
  eng.run();
  return {eng.now(), eng.events_dispatched()};
}

}  // namespace

double measure_allgather(hw::ClusterSpec spec, const coll::AllgatherFn& fn,
                         std::size_t msg, obs::Sink& sink) {
  return run(std::move(spec), fn, ag_rank, msg, sink).sim_seconds;
}

CountedRun measure_allgather_counted(hw::ClusterSpec spec,
                                     const coll::AllgatherFn& fn,
                                     std::size_t msg) {
  return run(std::move(spec), fn, ag_rank, msg, obs::null_sink());
}

double measure_allreduce(hw::ClusterSpec spec, const coll::AllreduceFn& fn,
                         std::size_t bytes, obs::Sink& sink) {
  return run(std::move(spec), fn, reduce_rank, bytes, sink).sim_seconds;
}

double measure_alltoall(hw::ClusterSpec spec, const coll::AlltoallFn& fn,
                        std::size_t msg, obs::Sink& sink) {
  return run(std::move(spec), fn, a2a_rank, msg, sink).sim_seconds;
}

double measure_reduce_scatter(hw::ClusterSpec spec,
                              const coll::ReduceScatterFn& fn,
                              std::size_t bytes, obs::Sink& sink) {
  return run(std::move(spec), fn, reduce_rank, bytes, sink).sim_seconds;
}

namespace {

sim::Task<void> pingpong_a(mpi::Comm& comm, int a, int b, hw::BufView out,
                           hw::BufView in) {
  co_await comm.send(a, b, 0, out);
  co_await comm.recv(a, b, 1, in);
}

sim::Task<void> pingpong_b(mpi::Comm& comm, int a, int b, hw::BufView out,
                           hw::BufView in) {
  co_await comm.recv(b, a, 0, in);
  co_await comm.send(b, a, 1, out);
}

sim::Task<void> bw_sender(mpi::Comm& comm, int a, int b, hw::BufView buf,
                          int window) {
  std::vector<mpi::Request> reqs;
  reqs.reserve(static_cast<std::size_t>(window));
  for (int i = 0; i < window; ++i) {
    reqs.push_back(comm.isend(a, b, 0, buf));
  }
  co_await comm.wait_all(std::move(reqs));
  // Completion ack so the measured interval covers delivery.
  auto token = hw::Buffer::phantom(1);
  co_await comm.recv(a, b, 1, token.view());
}

sim::Task<void> bw_receiver(mpi::Comm& comm, int a, int b, hw::BufView buf,
                            int window) {
  std::vector<mpi::Request> reqs;
  reqs.reserve(static_cast<std::size_t>(window));
  for (int i = 0; i < window; ++i) {
    reqs.push_back(comm.irecv(b, a, 0, buf));
  }
  co_await comm.wait_all(std::move(reqs));
  auto token = hw::Buffer::phantom(1);
  co_await comm.send(b, a, 1, token.view());
}

}  // namespace

double measure_pt2pt_latency(hw::ClusterSpec spec, int a, int b,
                             std::size_t msg) {
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto out_a = hw::Buffer::phantom(msg), in_a = hw::Buffer::phantom(msg);
  auto out_b = hw::Buffer::phantom(msg), in_b = hw::Buffer::phantom(msg);
  eng.spawn(pingpong_a(comm, a, b, out_a.view(), in_a.view()));
  eng.spawn(pingpong_b(comm, a, b, out_b.view(), in_b.view()));
  eng.run();
  return eng.now() / 2.0;
}

double measure_pt2pt_bandwidth(hw::ClusterSpec spec, int a, int b,
                               std::size_t msg, int window) {
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto sbuf = hw::Buffer::phantom(msg);
  auto rbuf = hw::Buffer::phantom(msg);
  eng.spawn(bw_sender(comm, a, b, sbuf.view(), window));
  eng.spawn(bw_receiver(comm, a, b, rbuf.view(), window));
  eng.run();
  return static_cast<double>(window) * static_cast<double>(msg) / eng.now();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  os << "== " << title << " ==\n";
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) {
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(headers);
  std::string rule;
  for (std::size_t c = 0; c < headers.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 < headers.size()) rule += "  ";
  }
  os << rule << '\n';
  for (const auto& row : rows) emit(row);
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) os << ',';
    }
    os << '\n';
  };
  emit(headers);
  for (const auto& row : rows) emit(row);
}

std::string format_size(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    std::snprintf(buf, sizeof buf, "%zuM", bytes >> 20);
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes >> 10);
  } else {
    std::snprintf(buf, sizeof buf, "%zu", bytes);
  }
  return buf;
}

std::string format_us(double seconds) {
  char buf[32];
  const double us = seconds * 1e6;
  std::snprintf(buf, sizeof buf, us < 100 ? "%.2f" : "%.1f", us);
  return buf;
}

std::string format_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", r);
  return buf;
}

std::vector<std::size_t> size_sweep(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  for (std::size_t s = lo; s <= hi; s *= 2) out.push_back(s);
  return out;
}

}  // namespace hmca::osu
