#include "core/mha_rooted.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "coll/allgather.hpp"
#include "coll/bcast.hpp"
#include "coll/phase_span.hpp"
#include "obs/names.hpp"
#include "shm/shm.hpp"

namespace hmca::core {

sim::Task<void> mha_bcast(mpi::Comm& comm, int my, int root, hw::BufView data,
                          std::size_t pipeline_chunk) {
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("mha_bcast: world comm required");
  }
  if (my < 0 || my >= comm.size() || root < 0 || root >= comm.size()) {
    throw std::invalid_argument("mha_bcast: bad rank/root");
  }
  if (pipeline_chunk == 0) {
    throw std::invalid_argument("mha_bcast: pipeline_chunk must be > 0");
  }
  const int l = cl.ppn();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const int root_node = comm.node_of(root);
  const int root_local = comm.node_local_rank(root);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);

  {
    // Steps 0 + 1 are the inter-node stage of the rooted collective and
    // attribute as phase 2 (the phase-1 gather has no analog in a bcast).
    coll::PhaseSpan p2(comm, my, obs::names::kPhase2);

    // Step 0: a non-leader root hands the payload to its node leader (one
    // intra-node transfer; CMA for large payloads).
    if (my == root && root_local != 0) {
      co_await comm.send(my, root - root_local, 9, data);  // my node's leader
    }
    if (leader && node == root_node && root_local != 0) {
      co_await comm.recv(my, root, 9, data);
    }

    // Step 1: inter-node broadcast among leaders, rooted at the root's
    // node.
    if (leader && cl.nodes() > 1) {
      auto& lcomm = comm.world().leader_comm();
      if (data.len % static_cast<std::size_t>(cl.nodes()) == 0 &&
          data.len >= static_cast<std::size_t>(cl.nodes())) {
        co_await coll::bcast_scatter_allgather(lcomm, node, root_node, data);
      } else {
        co_await coll::bcast_binomial(lcomm, node, root_node, data);
      }
    }
  }

  // Step 2: node-level distribution through shared memory, pipelined in
  // chunks so member copy-outs overlap the leader's copy-ins.
  if (l == 1) co_return;
  coll::PhaseSpan p3(comm, my, obs::names::kPhase3);
  auto region = comm.share().acquire<shm::ShmRegion>(
      node, shm::op_key(comm.ctx(), seq, 7), l, [&] {
        return std::make_shared<shm::ShmRegion>(cl, node, data.len,
                                                comm.sink(),
                                                cl.global_rank(node, 0));
      });
  const std::size_t chunks =
      (data.len + pipeline_chunk - 1) / pipeline_chunk;
  if (leader) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t off = c * pipeline_chunk;
      const std::size_t len = std::min(pipeline_chunk, data.len - off);
      co_await region->copy_in_publish(comm.to_global(my),
                                       data.sub(off, len), off);
    }
  } else if (my != root) {
    for (std::size_t c = 0; c < chunks; ++c) {
      co_await region->wait_published(c + 1);
      const auto ch = region->chunk(c);
      co_await region->copy_out(comm.to_global(my), c,
                                data.sub(ch.offset, ch.len));
    }
  } else {
    // A non-leader root already has the payload; just drain publications
    // so the shared object's lifetime stays SPMD-consistent.
    co_await region->wait_published(chunks);
  }
}

sim::Task<void> mha_reduce(mpi::Comm& comm, int my, int root, hw::BufView data,
                           std::size_t count, mpi::Dtype dtype,
                           mpi::ReduceOp op) {
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("mha_reduce: world comm required");
  }
  if (my < 0 || my >= comm.size() || root < 0 || root >= comm.size()) {
    throw std::invalid_argument("mha_reduce: bad rank/root");
  }
  if (data.len != count * mpi::dtype_size(dtype)) {
    throw std::invalid_argument("mha_reduce: data size mismatch");
  }
  const int l = cl.ppn();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const int root_node = comm.node_of(root);
  const int root_local = comm.node_local_rank(root);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);

  // Step 1: node-level aggregation. Small vectors go through shared
  // memory (members publish, the leader folds in publication order — the
  // MVAPICH-style shm reduce); large vectors use a binomial tree over the
  // node ranks so the folds parallelize instead of serializing on the
  // leader.
  constexpr std::size_t kShmReduceThreshold = 32 * 1024;
  if (l > 1) {
    if (data.len <= kShmReduceThreshold) {
      auto region = comm.share().acquire<shm::ShmRegion>(
          node, shm::op_key(comm.ctx(), seq, 8), l, [&] {
            return std::make_shared<shm::ShmRegion>(
                cl, node, data.len * static_cast<std::size_t>(l - 1),
                comm.sink(), cl.global_rank(node, 0));
          });
      if (!leader) {
        co_await region->copy_in_publish(
            comm.to_global(my), data,
            static_cast<std::size_t>(local - 1) * data.len);
      } else {
        for (int k = 0; k + 1 < l; ++k) {
          co_await region->wait_published(static_cast<std::size_t>(k) + 1);
          const auto ch = region->chunk(static_cast<std::size_t>(k));
          co_await cl.cpu_reduce_by(comm.to_global(my),
                                    static_cast<double>(data.len));
          mpi::apply_reduce(op, dtype, data, region->view(ch.offset, ch.len),
                            count);
        }
      }
    } else {
      auto& ncomm = comm.world().node_comm(node);
      co_await coll::reduce_binomial(ncomm, local, 0, data, count, dtype, op);
    }
  }

  // Step 2: binomial reduction across node leaders, rooted at the root's
  // node leader.
  if (leader && cl.nodes() > 1) {
    auto& lcomm = comm.world().leader_comm();
    co_await coll::reduce_binomial(lcomm, node, root_node, data, count, dtype,
                                   op);
  }

  // Step 3: if the root is not its node's leader, the leader hands over.
  // (The non-leader root reaches here after contributing in step 1.)
  if (root_local != 0) {
    if (leader && node == root_node) {
      co_await comm.send(my, root, 10, data);
    } else if (my == root) {
      co_await comm.recv(my, root - root_local, 10, data);
    }
  }
}

}  // namespace hmca::core
