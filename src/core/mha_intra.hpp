// MHA-intra: the multi-HCA aware intra-node Allgather (paper Sec. 3.1).
//
// Extends Direct Spread: of the L-1 blocks a process must fetch, it copies
// L-1-d itself through CMA and offloads d to the (otherwise idle) HCAs as
// loopback RDMA reads, with d chosen so that CPUs and adapters finish at
// roughly the same time (Eq. 1, Fig. 4b).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/allgatherv.hpp"
#include "coll/graph.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Per-node bulletin board through which SPMD ranks publish the address of
/// their contribution so peers can issue one-sided reads (the simulation
/// analogue of the buffer-address exchange CMA/RDMA collectives perform at
/// communicator setup).
class AddressBoard {
 public:
  AddressBoard(sim::Engine& eng, int parties)
      : cv_(eng), views_(static_cast<std::size_t>(parties)), parties_(parties) {}

  /// Publish this rank's view, then wait until every party has published.
  sim::Task<void> put_and_wait(int idx, hw::BufView v) {
    views_.at(static_cast<std::size_t>(idx)) = v;
    if (++registered_ == parties_) cv_.notify_all();
    co_await cv_.wait_until([this] { return registered_ == parties_; });
  }

  hw::BufView view(int idx) const {
    return views_.at(static_cast<std::size_t>(idx));
  }

 private:
  sim::Condition cv_;
  std::vector<hw::BufView> views_;
  int parties_;
  int registered_ = 0;
};

/// MHA-intra Allgather over a *node-local* communicator.
///
/// `offload` is d, the per-process amount of workload delegated to the
/// HCAs, in units of whole block transfers but *byte-granular* (the paper
/// tunes an offload size, Fig. 5): d = 1.5 offloads one full block plus
/// half of the next. -1 selects Eq. 1's analytic optimum; 0 degenerates to
/// the plain CMA Direct Spread baseline; comm.size()-1 offloads everything.
/// The HCA reads are posted before the CPU starts copying, so adapters and
/// processor work fully overlap.
sim::Task<void> allgather_mha_intra(mpi::Comm& node_comm, int my,
                                    hw::BufView send, hw::BufView recv,
                                    std::size_t msg, bool in_place = false,
                                    double offload = -1.0);

/// Graph-builder form of MHA-intra over the node's per-rank `layout` (one
/// block per rank of `node_comm`; `recv` holds `layout.total` bytes).
/// Appends one task per block transfer — the address-board exchange, the
/// CPU seed, one CMA task per near block, one HCA loopback task per
/// offloaded block, and the Eq. 1 fractional boundary block split
/// byte-exact into a CMA + an RDMA task (the offload d *is* the chunk
/// partition). d counts whole blocks; with `offload` < 0 it is Eq. 1 at the
/// mean block `layout.total / comm.size()`. Empty blocks get no read task.
/// Registers each produced byte range in `producers` at `producer_base` +
/// block offset so downstream consumers (e.g. phase-2 sends) can depend on
/// exactly the tasks covering their bytes. Tasks carry `phase` for span
/// attribution.
///
/// `allgather_mha_intra` is this builder on a uniform layout plus a
/// GraphExecutor run; the hierarchical designs (allgather_hierarchy and
/// allgatherv_mha) splice the tasks into their own graphs so phase 2
/// streams against the phase-1 tail.
void build_mha_intra_tasks(coll::TaskGraph& g, coll::RangeProducers& producers,
                           std::size_t producer_base, mpi::Comm& node_comm,
                           int my, hw::BufView send, hw::BufView recv,
                           const coll::VarLayout& layout, bool in_place,
                           double offload, const std::string& phase);

/// The Eq. 1 analytic offload amount for a node-local communicator of
/// size l (real-valued).
double analytic_offload(const hw::ClusterSpec& spec, int l, std::size_t msg);

/// Eq. 1 re-balanced over `healthy_rails` surviving adapters (rail fault
/// injection): 0 rails => 0 (CPU-only fallback), all rails => the plain
/// analytic optimum.
double analytic_offload_degraded(const hw::ClusterSpec& spec, int l,
                                 std::size_t msg, int healthy_rails);

}  // namespace hmca::core
