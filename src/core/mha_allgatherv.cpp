#include "core/mha_allgatherv.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "core/mha_intra.hpp"
#include "model/cost.hpp"
#include "shm/shm.hpp"
#include "sim/sync.hpp"

namespace hmca::core {

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
                const hw::BufView& recv, const coll::VarLayout& layout,
                bool in_place) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("mha_allgatherv: bad rank");
  }
  if (layout.counts.size() != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("mha_allgatherv: layout size != comm size");
  }
  if (recv.len != layout.total) {
    throw std::invalid_argument("mha_allgatherv: recv size != layout total");
  }
  if (!in_place && send.len != layout.count(my)) {
    throw std::invalid_argument("mha_allgatherv: send size != my count");
  }
}

// Phase 1 of allgatherv_mha on one node: the intra-node MHA direct spread
// over CMA, with the far end of the schedule offloaded to the HCAs until the
// Eq. 1 byte budget is spent. The CPU/HCA split depends on the variable
// block sizes encountered along the walk, so the body stays one coroutine
// and runs as a wrapped graph task.
sim::Task<void> intra_body(mpi::Comm& node_comm, int my, hw::BufView send,
                           hw::BufView recv, coll::VarLayout layout,
                           bool in_place) {
  const int l = node_comm.size();
  auto& cl = node_comm.cluster();
  auto& eng = node_comm.engine();
  const int node = node_comm.node_of(my);
  const int grank = node_comm.to_global(my);

  co_await coll::seed_own_block(node_comm, my, send, recv, layout, in_place);
  if (l == 1) co_return;

  // Address exchange, as in the equal-block MHA-intra.
  const hw::BufView contribution =
      in_place ? recv.sub(layout.offset(my), layout.count(my)) : send;
  const std::uint64_t seq = node_comm.next_op_seq(my);
  auto board = node_comm.share().acquire<AddressBoard>(
      node, shm::op_key(node_comm.ctx(), seq, 11), l,
      [&] { return std::make_shared<AddressBoard>(eng, l); });
  co_await board->put_and_wait(my, contribution);

  // Eq. 1 byte budget: with average message size M the tuned split
  // offloads d of (L-1) transfers; the variable-block analogue hands the
  // HCAs the same share of *bytes*, taken from the far end of the
  // direct-spread schedule.
  const double avg =
      static_cast<double>(layout.total) / static_cast<double>(l);
  const double d = model::optimal_offload(
      model::ModelParams::from_spec(cl.spec()), l, std::max(avg, 1.0));
  double hca_budget = d / std::max(1, l - 1) *
                      static_cast<double>(layout.total - layout.count(my));

  sim::WaitGroup hca_reads(eng);
  int first_cpu_distance = l - 1;  // distances > this go to the adapters
  for (int i = l - 1; i >= 1 && hca_budget > 0.0; --i) {
    const int src = (my - i + l) % l;
    const std::size_t bytes = layout.count(src);
    if (bytes == 0) {
      first_cpu_distance = i - 1;
      continue;
    }
    if (static_cast<double>(bytes) > hca_budget) break;
    hca_budget -= static_cast<double>(bytes);
    first_cpu_distance = i - 1;
    hca_reads.spawn(node_comm.net().rdma_get(
        grank, node_comm.to_global(src), board->view(src),
        recv.sub(layout.offset(src), bytes), net::Net::kStripe));
  }
  for (int i = 1; i <= first_cpu_distance; ++i) {
    const int src = (my - i + l) % l;
    if (layout.count(src) == 0) continue;
    co_await node_comm.net().cma_get(
        grank, board->view(src),
        recv.sub(layout.offset(src), layout.count(src)),
        node_comm.to_global(src));
  }
  co_await hca_reads.wait();
}

}  // namespace

sim::Task<void> allgatherv_mha(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv,
                               const coll::VarLayout& layout, bool in_place) {
  check_args(comm, my, send, recv, layout, in_place);
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgatherv_mha: world comm required");
  }
  const int l = cl.ppn();
  const int n = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);
  auto& eng = comm.engine();
  const int grank = comm.to_global(my);

  // Node block geometry: node k's block covers its ranks' blocks, which
  // are contiguous because ranks are node-major.
  std::vector<std::size_t> node_counts(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < comm.size(); ++r) {
    node_counts[static_cast<std::size_t>(r / l)] += layout.count(r);
  }
  const auto nodes = coll::VarLayout::from_counts(std::move(node_counts));

  coll::GraphExecutor exec(eng, comm.sink(), grank);
  coll::TaskGraph g;

  // ---- Phase 1: node-level aggregation (one macro task: the byte-budget
  // walk's order is data-driven) ----
  int t_p1 = -1;
  if (l > 1) {
    std::vector<std::size_t> local_counts;
    local_counts.reserve(static_cast<std::size_t>(l));
    for (int r = 0; r < l; ++r) {
      local_counts.push_back(layout.count(node * l + r));
    }
    auto local_layout = coll::VarLayout::from_counts(std::move(local_counts));
    const hw::BufView node_slice =
        recv.sub(nodes.offset(node), nodes.count(node));
    t_p1 = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, node, local,
         local_layout = std::move(local_layout), in_place] {
          return intra_body(comm.world().node_comm(node), local, send,
                            node_slice, local_layout, in_place);
        },
        coll::TaskOpts{"intra-v", "phase1", -1, nodes.count(node), -1, -1});
  } else if (!in_place && layout.count(my) > 0) {
    t_p1 = g.add(
        coll::TaskKind::kCopy, coll::Lane::kCpu,
        [&comm, my, send, recv, &layout, in_place] {
          return coll::seed_own_block(comm, my, send, recv, layout, in_place);
        },
        coll::TaskOpts{"seed", "phase1", -1, layout.count(my), -1, -1});
  }

  if (n == 1) {
    if (!g.empty()) co_await exec.run(g);
    co_return;
  }

  std::shared_ptr<shm::ShmRegion> region;
  if (l > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, shm::op_key(comm.ctx(), seq, 12), l, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink(),
                                                  cl.global_rank(node, 0));
        });
  }

  // Phase 2 over the node blocks with the phase-3 publish on the leader;
  // members drain every publication slot the leader's ring produces. The
  // first sends wait on the one phase-1 task, empty node blocks included.
  if (leader) {
    coll::build_ring_exchange(
        g, exec, comm.world().leader_comm(), node, recv, nodes, {}, t_p1,
        coll::ExchangeOpts{"p2 ", "phase2", region});
  } else {
    coll::build_publish_drain(g, exec, region, grank, recv,
                              coll::ring_exchange_publishes(nodes, node),
                              "p3 out");
  }

  co_await exec.run(g);
}

}  // namespace hmca::core
