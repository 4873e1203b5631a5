#include "coll/alltoall.hpp"

#include <stdexcept>
#include <utility>

#include "coll/phase_span.hpp"
#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"

namespace hmca::coll {

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
                const hw::BufView& recv, std::size_t msg) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("alltoall: bad rank");
  }
  const std::size_t need = static_cast<std::size_t>(comm.size()) * msg;
  if (send.len != need || recv.len != need) {
    throw std::invalid_argument("alltoall: buffers must hold size * msg");
  }
}

void check_args_v(const mpi::Comm& comm, int my, const hw::BufView& send,
                  const hw::BufView& recv, const AlltoallvLayout& layout) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("alltoallv: bad rank");
  }
  if (layout.nranks != comm.size()) {
    throw std::invalid_argument("alltoallv: layout rank count != comm size");
  }
  if (send.len != layout.send_total(my) ||
      recv.len != layout.recv_total(my)) {
    throw std::invalid_argument(
        "alltoallv: buffer sizes must match the layout totals");
  }
}

// Local block copy paying the CPU sweep cost.
sim::Task<void> copy_local(mpi::Comm& comm, int my, hw::BufView dst,
                           hw::BufView src) {
  co_await comm.cluster().cpu_copy_by(comm.to_global(my),
                                      static_cast<double>(src.len));
  hw::copy_payload(dst, src);
}

}  // namespace

AlltoallvLayout AlltoallvLayout::from_counts(int nranks,
                                             std::vector<std::size_t> counts) {
  const std::size_t n = static_cast<std::size_t>(nranks);
  if (nranks <= 0 || counts.size() != n * n) {
    throw std::invalid_argument(
        "AlltoallvLayout: counts must be an nranks x nranks matrix");
  }
  AlltoallvLayout out;
  out.nranks = nranks;
  out.counts = std::move(counts);
  out.send_offsets_.assign(n * n, 0);
  out.recv_offsets_.assign(n * n, 0);
  out.send_totals_.assign(n, 0);
  out.recv_totals_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      out.send_offsets_[i * n + j] = acc;
      acc += out.counts[i * n + j];
    }
    out.send_totals_[i] = acc;
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.recv_offsets_[i * n + j] = acc;
      acc += out.counts[i * n + j];
      out.total_ += out.counts[i * n + j];
    }
    out.recv_totals_[j] = acc;
  }
  return out;
}

sim::Task<void> alltoall_direct(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg) {
  check_args(comm, my, send, recv, msg);
  co_await prim::Planner::run(comm, my, send, recv,
                              prim::alltoall_direct(comm.size(), msg));
}

sim::Task<void> alltoall_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, std::size_t msg) {
  check_args(comm, my, send, recv, msg);
  PhaseSpan phase(comm, my);
  const int n = comm.size();
  if (msg > 0) {
    co_await copy_local(comm, my,
                        recv.sub(static_cast<std::size_t>(my) * msg, msg),
                        send.sub(static_cast<std::size_t>(my) * msg, msg));
  }
  if (msg == 0) co_return;
  for (int s = 1; s < n; ++s) {
    const int dst = (my + s) % n;
    const int src = (my - s + n) % n;
    co_await comm.sendrecv(my, dst, s,
                           send.sub(static_cast<std::size_t>(dst) * msg, msg),
                           src, s,
                           recv.sub(static_cast<std::size_t>(src) * msg, msg));
  }
}

sim::Task<void> alltoallv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv,
                                 const AlltoallvLayout& layout) {
  check_args_v(comm, my, send, recv, layout);
  co_await prim::Planner::run(
      comm, my, send, recv,
      prim::alltoallv_direct(layout.nranks, layout.counts));
}

sim::Task<void> alltoallv_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                   hw::BufView recv,
                                   const AlltoallvLayout& layout) {
  check_args_v(comm, my, send, recv, layout);
  PhaseSpan phase(comm, my);
  const int n = comm.size();
  const std::size_t self = layout.count(my, my);
  if (self > 0) {
    co_await copy_local(comm, my, recv.sub(layout.recv_offset(my, my), self),
                        send.sub(layout.send_offset(my, my), self));
  }
  for (int s = 1; s < n; ++s) {
    const int dst = (my + s) % n;
    const int src = (my - s + n) % n;
    const std::size_t sc = layout.count(my, dst);
    const std::size_t rc = layout.count(src, my);
    std::vector<mpi::Request> reqs;
    if (rc > 0) {
      reqs.push_back(
          comm.irecv(my, src, s, recv.sub(layout.recv_offset(src, my), rc)));
    }
    if (sc > 0) {
      reqs.push_back(
          comm.isend(my, dst, s, send.sub(layout.send_offset(my, dst), sc)));
    }
    if (!reqs.empty()) co_await comm.wait_all(std::move(reqs));
  }
}

}  // namespace hmca::coll
