#include "coll/alltoall.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/phase_span.hpp"
#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"

namespace hmca::coll {

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
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
  out.counts_ = std::move(counts);
  out.send_offsets_.assign(n * n, 0);
  out.recv_offsets_.assign(n * n, 0);
  out.send_totals_.assign(n, 0);
  out.recv_totals_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      out.send_offsets_[i * n + j] = acc;
      acc += out.counts_[i * n + j];
    }
    out.send_totals_[i] = acc;
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.recv_offsets_[i * n + j] = acc;
      acc += out.counts_[i * n + j];
      out.total_ += out.counts_[i * n + j];
    }
    out.recv_totals_[j] = acc;
  }
  return out;
}

AlltoallvLayout AlltoallvLayout::uniform(int nranks, std::size_t msg) {
  if (nranks <= 0) {
    throw std::invalid_argument("AlltoallvLayout: nranks must be positive");
  }
  AlltoallvLayout out;
  out.nranks = nranks;
  out.uniform_ = true;
  out.msg_ = msg;
  const std::size_t n = static_cast<std::size_t>(nranks);
  out.total_ = n * n * msg;
  return out;
}

sim::Task<void> alltoall_direct(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg) {
  const auto layout = AlltoallvLayout::uniform(comm.size(), msg);
  co_await alltoallv_direct(comm, my, send, recv, layout);
}

sim::Task<void> alltoall_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, std::size_t msg) {
  const auto layout = AlltoallvLayout::uniform(comm.size(), msg);
  co_await alltoallv_pairwise(comm, my, send, recv, layout);
}

sim::Task<void> alltoallv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv,
                                 const AlltoallvLayout& layout) {
  check_args(comm, my, send, recv, layout);
  co_await prim::Planner::run(comm, my, send, recv, [&layout] {
    return prim::alltoallv_direct(layout);
  });
}

sim::Task<void> alltoallv_pairwise(mpi::Comm& comm, int my, hw::BufView send,
                                   hw::BufView recv,
                                   const AlltoallvLayout& layout) {
  check_args(comm, my, send, recv, layout);
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
    const hw::BufView out = send.sub(layout.send_offset(my, dst), sc);
    const hw::BufView in = recv.sub(layout.recv_offset(src, my), rc);
    if (sc > 0 && rc > 0) {
      co_await comm.sendrecv(my, dst, s, out, src, s, in);
    } else if (sc > 0) {
      co_await comm.send(my, dst, s, out);
    } else if (rc > 0) {
      co_await comm.recv(my, src, s, in);
    }
  }
}

}  // namespace hmca::coll
