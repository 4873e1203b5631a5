// Conventional ("flat") Allgather algorithms and the multi-leader two-level
// baseline (paper Sec. 2.2 and Sec. 6 / Kandalla et al. [14]).
//
// All entry points are SPMD coroutines: every comm-local rank calls the same
// function with its own rank id and buffer views.
//
// Buffer convention: `send` is the caller's contribution (`msg` bytes) and
// `recv` holds `comm.size() * msg` bytes. With `in_place` the contribution
// is already at `recv[my*msg .. (my+1)*msg)` and `send` is ignored.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "coll/allgatherv.hpp"
#include "coll/graph.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "obs/names.hpp"
#include "sim/task.hpp"

namespace hmca::shm {
class ShmRegion;
}  // namespace hmca::shm

namespace hmca::coll {

/// Pluggable allgather signature (used e.g. to swap the allgather phase of
/// Ring-Allreduce for the MHA design).
using AllgatherFn = std::function<sim::Task<void>(
    mpi::Comm&, int my, hw::BufView send, hw::BufView recv, std::size_t msg,
    bool in_place)>;

/// Copy the caller's contribution into its recv block (one CPU copy), or
/// do nothing for in-place operation.
sim::Task<void> seed_own_block(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, std::size_t msg,
                               bool in_place);

// ---- Chunked exchange graph builders ----
//
// The Ring/RD exchanges of the flat allgathers and phase 2 (+ the phase-3
// publish) of the hierarchical ones, added to a caller's graph. Chunk c of
// step s travels with tag s * kChunkTagStride + c; recvs are posted at
// build time and release their stub tasks through `exec`. Per chunk the
// tasks are created send, recv, publish (creation order = FIFO priority).

/// Span naming and the optional leader publish. Tasks are labelled
/// `prefix` + "send s3" / "recv s3" (" k3" for RD) and "p3 pub s3". With a
/// `region`, every landed chunk is copied in at its recv offset and
/// published (an empty one as a zero-length marker, keeping member slots
/// aligned).
struct ExchangeOpts {
  std::string prefix;
  std::string phase = obs::names::kPhaseExchange;
  std::shared_ptr<shm::ShmRegion> region;
};

/// Seed task: one CPU copy of the caller's `send` into `own`, its block of
/// the recv buffer, labelled "seed" in `phase`. Adds nothing and returns -1
/// when in place or `own` is empty.
int add_seed_task(TaskGraph& g, mpi::Comm& comm, int my, hw::BufView send,
                  hw::BufView own, bool in_place, const std::string& phase);

/// Recv stub: posts the irecv of `dst` now; the task is released when it
/// completes.
int add_recv_stub(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm, int my,
                  int src, int tag, hw::BufView dst, TaskOpts opts);

/// Ring over `blocks` (one per rank): step s sends block my - s right and
/// receives block my - s - 1 from the left, each split by chunks_for. If
/// the strided tags would pass mpi::kMaxUserTag, every block goes whole
/// with tag s. First-step sends wait on the `first` tasks covering their
/// bytes, else on `first_fallback` (if >= 0; RangeProducers keeps no empty
/// ranges); later ones on the recv stub of the same chunk.
void build_ring_exchange(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm,
                         int my, hw::BufView recv, const VarLayout& blocks,
                         const RangeProducers& first, int first_fallback,
                         const ExchangeOpts& opts);

/// Recursive Doubling over comm.size() (a power of two) blocks of `block`
/// bytes. Sends wait on the `prod` tasks covering their bytes; recv stubs
/// join `prod` as producers.
void build_rd_exchange(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm,
                       int my, hw::BufView recv, std::size_t block,
                       RangeProducers& prod, const ExchangeOpts& opts);

/// Publication slots of a publishing exchange: the Ring run by the leader
/// of block `own`, or the RD over `n` blocks of `block` bytes.
int ring_exchange_publishes(const VarLayout& blocks, int own);
int rd_exchange_publishes(int n, std::size_t block);

/// Member side (phase 3): `slots` copy-out tasks labelled `label`, slot i
/// released when `region` publishes its i-th chunk and copied to the same
/// offset of `recv`.
void build_publish_drain(TaskGraph& g, GraphExecutor& exec,
                         std::shared_ptr<shm::ShmRegion> region, int rank,
                         hw::BufView recv, int slots, const std::string& label);

/// Ring: N-1 nearest-neighbour steps, each forwarding the block received in
/// the previous step (Sec. 2.2(2)). Bandwidth-optimal, latency O(N).
/// allgatherv_ring on a uniform layout.
sim::Task<void> allgather_ring(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, std::size_t msg,
                               bool in_place = false);

/// Recursive Doubling: log2(N) exchanges of doubling block ranges
/// (Sec. 2.2(1)). Power-of-two communicator sizes only; the dispatcher
/// falls back to Bruck otherwise.
sim::Task<void> allgather_rd(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv, std::size_t msg,
                             bool in_place = false);

/// Bruck: ceil(log2 N) store-and-forward steps on rotated block indices;
/// works for any N. Pays a final local re-rotation copy.
sim::Task<void> allgather_bruck(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg,
                                bool in_place = false);

/// Direct Spread (dissemination): in step i, receive block (my-i) mod N
/// directly from its owner and send the own block to (my+i) mod N
/// (Sec. 2.2(3)). All transfers are posted nonblocking up front.
/// allgatherv_direct on a uniform layout.
sim::Task<void> allgather_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv, std::size_t msg,
                                 bool in_place = false);

/// Small-message dispatcher used by library profiles: RD when N is a power
/// of two, Bruck otherwise.
sim::Task<void> allgather_rd_or_bruck(mpi::Comm& comm, int my,
                                      hw::BufView send, hw::BufView recv,
                                      std::size_t msg, bool in_place = false);

/// Multi-leader two-level Allgather (Kandalla et al. [14]): `groups` leader
/// processes per node, strictly separated phases —
///   1. group members share their blocks with the group leader via shared
///      memory,
///   2. all leaders run a *flat* Ring over group blocks (intra- and
///      inter-node transfers mixed: the bottleneck shown in Fig. 2),
///   3. leaders broadcast the full result through shared memory.
/// Requires `comm` to be node-major with ppn divisible by `groups`.
sim::Task<void> allgather_multi_leader(mpi::Comm& comm, int my,
                                       hw::BufView send, hw::BufView recv,
                                       std::size_t msg, bool in_place = false,
                                       int groups = 2);

/// Node-aware (locality-aware Bruck-style) Allgather, after Bienz et al.:
///   1. intra-node exchange (RD/Bruck over the node-local communicator) so
///      every rank holds its node's block — no wire traffic,
///   2. node leaders run a flat Bruck over whole node blocks (any node
///      count; only L of the P ranks touch the network),
///   3. leaders publish the N-1 remote node blocks through shared memory
///      and members copy them out.
/// Requires the node-major world communicator.
sim::Task<void> allgather_node_aware_bruck(mpi::Comm& comm, int my,
                                           hw::BufView send, hw::BufView recv,
                                           std::size_t msg,
                                           bool in_place = false);

bool is_power_of_two(int n);
int log2_floor(int n);

}  // namespace hmca::coll
