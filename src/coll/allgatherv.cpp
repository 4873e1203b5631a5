#include "coll/allgatherv.hpp"

#include <stdexcept>

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

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
                const hw::BufView& recv, const VarLayout& layout,
                bool in_place) {
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

// Variable-size ring forwarding: block lengths differ per step, so the
// pipeline structure is the per-step sendrecv chain; run wrapped.
sim::Task<void> ring_body(mpi::Comm& comm, int my, hw::BufView send,
                          hw::BufView recv, const VarLayout& layout,
                          bool in_place) {
  const int n = comm.size();
  co_await seed_own_block(comm, my, send, recv, layout, in_place);
  if (n == 1) co_return;

  const int right = (my + 1) % n;
  const int left = (my - 1 + n) % n;
  int cur = my;
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (cur - 1 + n) % n;
    // Zero-byte blocks still synchronize the ring step (the transfer is
    // immediate but ordering is preserved).
    co_await comm.sendrecv(my, right, step,
                           recv.sub(layout.offset(cur), layout.count(cur)),
                           left, step,
                           recv.sub(layout.offset(incoming),
                                    layout.count(incoming)));
    cur = incoming;
  }
}

}  // namespace

sim::Task<void> seed_own_block(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, const VarLayout& layout,
                               bool in_place) {
  if (in_place || layout.count(my) == 0) co_return;
  co_await comm.cluster().cpu_copy_by(comm.to_global(my),
                                      static_cast<double>(layout.count(my)));
  hw::copy_payload(recv.sub(layout.offset(my), layout.count(my)), send);
}

sim::Task<void> allgatherv_ring(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, const VarLayout& layout,
                                bool in_place) {
  check_args(comm, my, send, recv, layout, in_place);
  co_await run_as_graph(comm.engine(), comm.sink(), comm.to_global(my),
                        "allgatherv-ring",
                        [&comm, my, send, recv, &layout, in_place] {
                          return ring_body(comm, my, send, recv, layout,
                                           in_place);
                        },
                        obs::names::kPhaseExchange);
}

sim::Task<void> allgatherv_direct(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView recv, const VarLayout& layout,
                                  bool in_place) {
  check_args(comm, my, send, recv, layout, in_place);
  const int n = comm.size();
  if (n == 1) {
    co_await seed_own_block(comm, my, send, recv, layout, in_place);
    co_return;
  }

  // Graph-native: the seed gates the sends; every posted receive releases
  // a stub on completion, so the drain is completion-ordered exactly like
  // the MPI_Waitall original.
  GraphExecutor exec(comm.engine(), comm.sink(), comm.to_global(my));
  TaskGraph g;
  int seed = -1;
  if (!in_place && layout.count(my) > 0) {
    seed = g.add(
        TaskKind::kCopy, Lane::kCpu,
        [&comm, my, send, recv, &layout, in_place] {
          return seed_own_block(comm, my, send, recv, layout, in_place);
        },
        TaskOpts{"seed", obs::names::kPhaseExchange, -1, layout.count(my), -1,
                 -1});
  }
  const hw::BufView own = recv.sub(layout.offset(my), layout.count(my));
  for (int i = 1; i < n; ++i) {
    const int src = (my - i + n) % n;
    add_recv_stub(g, exec, comm, my, src, i,
                  recv.sub(layout.offset(src), layout.count(src)),
                  TaskOpts{"recv", obs::names::kPhaseExchange, -1,
                           layout.count(src), -1, comm.to_global(src)});
  }
  for (int i = 1; i < n; ++i) {
    const int dst = (my + i) % n;
    const int t_send = g.add(
        TaskKind::kSend, Lane::kNic,
        [&comm, my, dst, i, own] { return comm.send(my, dst, i, own); },
        TaskOpts{"send", obs::names::kPhaseExchange, -1, own.len, -1,
                 comm.to_global(dst)});
    if (seed >= 0) g.depend(t_send, seed);
  }
  co_await exec.run(g);
}

}  // namespace hmca::coll
