#include "coll/allgatherv.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "obs/names.hpp"
#include "mpi/comm.hpp"

namespace hmca::coll {

VarLayout VarLayout::from_counts(std::vector<std::size_t> counts) {
  if (counts.empty()) {
    throw std::invalid_argument("VarLayout: empty counts");
  }
  VarLayout l;
  l.offsets.reserve(counts.size());
  for (std::size_t c : counts) {
    l.offsets.push_back(l.total);
    l.total += c;
  }
  l.counts = std::move(counts);
  return l;
}

VarLayout VarLayout::uniform(int n, std::size_t count) {
  return from_counts(
      std::vector<std::size_t>(static_cast<std::size_t>(std::max(n, 0)),
                               count));
}

void check_allgatherv_args(const mpi::Comm& comm, int my,
                           const hw::BufView& send, const hw::BufView& recv,
                           const VarLayout& layout, bool in_place) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("allgatherv: bad rank");
  }
  if (layout.counts.size() != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("allgatherv: layout size != comm size");
  }
  if (recv.len != layout.total) {
    throw std::invalid_argument("allgatherv: recv size != layout total");
  }
  if (!in_place && send.len != layout.count(my)) {
    throw std::invalid_argument("allgatherv: send size != my count");
  }
}

sim::Task<void> allgatherv_ring(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, const VarLayout& layout,
                                bool in_place) {
  check_allgatherv_args(comm, my, send, recv, layout, in_place);
  const int n = comm.size();
  if (n == 1) {  // my == 0: the own block is the whole buffer
    co_await seed_own_block(comm, my, send, recv, layout.total, in_place);
    co_return;
  }

  GraphExecutor exec(comm.engine(), comm.sink(), comm.to_global(my));
  TaskGraph g;
  const int seed = add_seed_task(
      g, comm, my, send, recv.sub(layout.offset(my), layout.count(my)),
      in_place, obs::names::kPhaseExchange);
  build_ring_exchange(g, exec, comm, my, recv, layout, {}, seed,
                      ExchangeOpts{});
  co_await exec.run(g);
}

sim::Task<void> allgatherv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, const VarLayout& layout,
                                  bool in_place) {
  check_allgatherv_args(comm, my, send, recv, layout, in_place);
  const int n = comm.size();
  if (n == 1) {  // my == 0: the own block is the whole buffer
    co_await seed_own_block(comm, my, send, recv, layout.total, in_place);
    co_return;
  }

  // The seed gates the sends. All receives are posted up front (MPI_Irecv
  // before MPI_Isend); each completion releases its stub, so the drain is
  // completion-ordered exactly like the MPI_Waitall original.
  GraphExecutor exec(comm.engine(), comm.sink(), comm.to_global(my));
  TaskGraph g;
  const hw::BufView own = recv.sub(layout.offset(my), layout.count(my));
  const int seed =
      add_seed_task(g, comm, my, send, own, in_place,
                    obs::names::kPhaseExchange);
  for (int i = 1; i < n; ++i) {
    const int src = (my - i + n) % n;
    add_recv_stub(g, exec, comm, my, src, i,
                  recv.sub(layout.offset(src), layout.count(src)),
                  TaskOpts{"recv", obs::names::kPhaseExchange, -1,
                           layout.count(src), comm.to_global(src)});
  }
  for (int i = 1; i < n; ++i) {
    const int dst = (my + i) % n;
    const int t_send = g.add(
        TaskKind::kSend, Lane::kNone,
        [&comm, my, dst, i, own] { return comm.send(my, dst, i, own); },
        TaskOpts{"send", obs::names::kPhaseExchange, -1, own.len,
                 comm.to_global(dst)});
    if (seed >= 0) g.depend(t_send, seed);
  }
  co_await exec.run(g);
}

}  // namespace hmca::coll
