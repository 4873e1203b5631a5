#include "core/mha_intra.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll/allgather.hpp"
#include "model/cost.hpp"
#include "shm/shm.hpp"

namespace hmca::core {

double analytic_offload(const hw::ClusterSpec& spec, int l, std::size_t msg) {
  const auto params = model::ModelParams::from_spec(spec);
  return model::optimal_offload(params, l, static_cast<double>(msg));
}

double analytic_offload_degraded(const hw::ClusterSpec& spec, int l,
                                 std::size_t msg, int healthy_rails) {
  if (healthy_rails <= 0) return 0.0;
  if (healthy_rails >= spec.hcas_per_node) return analytic_offload(spec, l, msg);
  // Eq. 1 re-evaluated over the surviving adapters: the offload share
  // shrinks with the loopback capacity the dead rails took with them.
  hw::ClusterSpec surviving = spec;
  surviving.hcas_per_node = healthy_rails;
  return analytic_offload(surviving, l, msg);
}

void build_mha_intra_tasks(coll::TaskGraph& g, coll::RangeProducers& producers,
                           std::size_t producer_base, mpi::Comm& node_comm,
                           int my, hw::BufView send, hw::BufView recv,
                           const coll::VarLayout& layout, bool in_place,
                           double offload, const std::string& phase) {
  const int l = node_comm.size();
  if (my < 0 || my >= l) throw std::invalid_argument("mha_intra: bad rank");
  if (layout.counts.size() != static_cast<std::size_t>(l)) {
    throw std::invalid_argument("mha_intra: layout size != comm size");
  }
  if (recv.len != layout.total) {
    throw std::invalid_argument("mha_intra: recv size != layout total");
  }
  if (!in_place && send.len != layout.count(my)) {
    throw std::invalid_argument("mha_intra: send size != my count");
  }
  const int node = node_comm.node_of(my);
  for (int r = 1; r < l; ++r) {
    if (node_comm.node_of(r) != node_comm.node_of(0)) {
      throw std::invalid_argument("mha_intra: communicator spans nodes");
    }
  }
  auto& cl = node_comm.cluster();
  auto& eng = node_comm.engine();
  const int grank = node_comm.to_global(my);
  // Eq. 1 is evaluated at the mean block (exact for equal blocks).
  const std::size_t msg = layout.total / static_cast<std::size_t>(l);
  // The offload split d is recomputed over the *surviving* loopback rails:
  // a dead HCA invalidates the Eq. 1 balance, and with no rail left the
  // design degenerates to the CPU-only CMA Direct Spread baseline.
  const int healthy = cl.alive_rail_count(node);
  obs::Sink& sink = node_comm.sink();
  if (offload < 0) offload = analytic_offload_degraded(cl.spec(), l, msg, healthy);
  if (healthy == 0 && offload > 0) {
    offload = 0;
    const sim::Time now = eng.now();
    sink.record(trace::Span{grank, trace::Kind::kPhase, now, now,
                            /*peer=*/-1, msg,
                            "fault:mha_intra cpu-only (all rails down)"});
  }
  offload = std::clamp(offload, 0.0, static_cast<double>(l - 1));
  sink.gauge("core.offload_d", offload, {{"node", std::to_string(node)}});

  // The own block: a local seed copy unless the caller gathers in place
  // (then the bytes are already in position and need no producer).
  const hw::BufView own = recv.sub(layout.offset(my), layout.count(my));
  const int t_seed =
      coll::add_seed_task(g, node_comm, my, send, own, in_place, phase);
  if (t_seed >= 0) {
    producers.add(producer_base + layout.offset(my), own.len, t_seed);
  }
  if (l == 1) return;

  // Publish the contribution address; peers read it one-sidedly. Every
  // read task depends on the board exchange.
  const hw::BufView contribution = in_place ? own : send;
  const std::uint64_t seq = node_comm.next_op_seq(my);
  auto board = node_comm.share().acquire<AddressBoard>(
      node, shm::op_key(node_comm.ctx(), seq, 3), l,
      [&] { return std::make_shared<AddressBoard>(eng, l); });
  const int t_board = g.add(
      coll::TaskKind::kWrapped, coll::Lane::kNone,
      [board, my, contribution] { return board->put_and_wait(my, contribution); },
      coll::TaskOpts{"board", phase, -1, 0, -1});

  // Workload split (Fig. 4b / Fig. 5): the d *farthest* distances go to the
  // adapters, byte-granular — `full` whole blocks plus a `frac_bytes` slice
  // of the boundary block. Task boundaries ARE the partition, so the graph
  // executor streams each block to its consumers as it lands. Empty blocks
  // get no task.
  const int full = static_cast<int>(std::floor(offload + 1e-9));
  const int split_dist = l - 1 - full;  // boundary distance (0 = none left)

  auto block = [&](int distance) {
    const int src = (my - distance + l) % l;
    return std::pair<int, hw::BufView>(
        src, recv.sub(layout.offset(src), layout.count(src)));
  };
  net::Net& net = node_comm.net();
  // One read of `len` bytes at `off` into block `src`: a CMA copy on the
  // CPU lane or a striped loopback RDMA read on the NIC lane.
  auto add_get = [&](bool hca, int src, hw::BufView dst, std::size_t off,
                     std::size_t len, const std::string& label) {
    const int src_g = node_comm.to_global(src);
    const int t =
        hca ? g.add(
                  coll::TaskKind::kRdma, coll::Lane::kNone,
                  [&net, grank, board, src, dst, src_g, off, len] {
                    return net.rdma_get(grank, src_g,
                                        board->view(src).sub(off, len),
                                        dst.sub(off, len), net::Net::kStripe);
                  },
                  coll::TaskOpts{label, phase, -1, len, src_g})
            : g.add(
                  coll::TaskKind::kCma, coll::Lane::kCpu,
                  [&net, grank, board, src, dst, src_g, off, len] {
                    return net.cma_get(grank, board->view(src).sub(off, len),
                                       dst.sub(off, len), src_g);
                  },
                  coll::TaskOpts{label, phase, -1, len, src_g});
    g.depend(t, t_board);
    producers.add(producer_base + layout.offset(src) + off, len, t);
  };

  // CPU tasks are created in the walk order (near distances first); the
  // single-slot CPU lane serializes them exactly like the sequential walk
  // they replace.
  for (int i = 1; i <= split_dist - 1; ++i) {
    const auto [src, dst] = block(i);
    if (dst.len > 0) {
      add_get(false, src, dst, 0, dst.len, "get b" + std::to_string(src));
    }
  }
  // The boundary block splits byte-exactly: the CPU copies the leading
  // len - frac bytes, the HCA reads the trailing frac.
  std::size_t frac_bytes = 0;
  if (split_dist >= 1) {
    const auto [src, dst] = block(split_dist);
    frac_bytes = std::min(
        static_cast<std::size_t>(
            std::llround((offload - full) * static_cast<double>(dst.len))),
        dst.len);
    if (frac_bytes < dst.len) {
      add_get(false, src, dst, 0, dst.len - frac_bytes,
              "get b" + std::to_string(src) + " cpu-part");
    }
  }
  // HCA loopback reads: all become ready the moment the board completes,
  // so the adapters work concurrently with the CPU walk, as before.
  for (int i = l - full; i <= l - 1; ++i) {
    const auto [src, dst] = block(i);
    if (dst.len > 0) {
      add_get(true, src, dst, 0, dst.len, "hca b" + std::to_string(src));
    }
  }
  if (frac_bytes > 0) {
    const auto [src, dst] = block(split_dist);
    add_get(true, src, dst, dst.len - frac_bytes, frac_bytes,
            "hca b" + std::to_string(src) + " frac");
  }
}

sim::Task<void> allgather_mha_intra(mpi::Comm& node_comm, int my,
                                    hw::BufView send, hw::BufView recv,
                                    std::size_t msg, bool in_place,
                                    double offload) {
  const auto layout = coll::VarLayout::uniform(node_comm.size(), msg);
  coll::TaskGraph g;
  coll::RangeProducers producers;
  build_mha_intra_tasks(g, producers, 0, node_comm, my, send, recv, layout,
                        in_place, offload, /*phase=*/"");
  if (g.empty()) co_return;
  coll::GraphExecutor exec(node_comm.engine(), node_comm.sink(),
                           node_comm.to_global(my));
  co_await exec.run(g);
}

}  // namespace hmca::core
