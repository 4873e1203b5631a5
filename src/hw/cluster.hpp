// Instantiated cluster: fluid resources for every node memory system and
// every HCA port, plus the primitive timed operations (CPU copy, reduction
// sweep, rail path construction) that higher layers compose.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hw/spec.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/fluid.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace hmca::hw {

class Cluster {
 public:
  Cluster(sim::Engine& eng, ClusterSpec spec);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() noexcept { return *eng_; }
  sim::FluidNetwork& net() noexcept { return net_; }
  const ClusterSpec& spec() const noexcept { return spec_; }

  // ---- Topology helpers ----
  int nodes() const noexcept { return spec_.nodes; }
  int ppn() const noexcept { return spec_.ppn; }
  int hcas() const noexcept { return spec_.hcas_per_node; }
  int world_size() const noexcept { return spec_.total_ranks(); }
  int node_of(int rank) const noexcept { return rank / spec_.ppn; }
  int local_rank(int rank) const noexcept { return rank % spec_.ppn; }
  int global_rank(int node, int local) const noexcept {
    return node * spec_.ppn + local;
  }

  // ---- NUMA topology ----
  int sockets() const noexcept { return spec_.sockets_per_node; }
  /// Socket of a node-local rank (block distribution).
  int socket_of_local(int local) const noexcept {
    return local * spec_.sockets_per_node / spec_.ppn;
  }
  int socket_of(int grank) const noexcept {
    return socket_of_local(local_rank(grank));
  }
  /// Socket an HCA is attached to (block distribution over sockets).
  int hca_socket(int hca) const noexcept {
    return hca * spec_.sockets_per_node / spec_.hcas_per_node;
  }
  /// First node-local rank of socket `s` — the exact inverse of the
  /// socket_of_local block distribution, valid for `ppn % sockets != 0`
  /// too (spans stay contiguous; sizes differ by at most one, earlier
  /// sockets larger: ppn=7, sockets=2 -> {4, 3}). `s == sockets()` yields
  /// ppn, so [socket_first_local(s), socket_first_local(s+1)) is always
  /// the socket's span.
  int socket_first_local(int s) const noexcept {
    return (s * spec_.ppn + spec_.sockets_per_node - 1) /
           spec_.sockets_per_node;
  }
  /// Number of node-local ranks on socket `s`.
  int socket_size(int s) const noexcept {
    return socket_first_local(s + 1) - socket_first_local(s);
  }
  /// First HCA attached to socket `s` (same block distribution; a socket
  /// may own zero adapters when hcas < sockets).
  int socket_hca_first(int s) const noexcept {
    return (s * spec_.hcas_per_node + spec_.sockets_per_node - 1) /
           spec_.sockets_per_node;
  }
  /// Number of HCAs attached to socket `s`.
  int socket_hca_count(int s) const noexcept {
    return socket_hca_first(s + 1) - socket_hca_first(s);
  }

  // ---- Resources ----
  sim::ResourceId mem(int node, int socket = 0) const {
    return mem_.at(sidx(node, socket));
  }
  /// Aggregate throughput of CPU-driven copies on a node socket
  /// (LLC/kernel-copy contention); NIC DMA bypasses it.
  sim::ResourceId copy_engine(int node, int socket = 0) const {
    return copy_engine_.at(sidx(node, socket));
  }
  /// Inter-socket link of a node (only exists when sockets() > 1).
  sim::ResourceId upi(int node) const { return upi_.at(static_cast<std::size_t>(node)); }
  sim::ResourceId hca_tx(int node, int hca) const {
    return hca_tx_.at(index(node, hca));
  }
  sim::ResourceId hca_rx(int node, int hca) const {
    return hca_rx_.at(index(node, hca));
  }
  /// PCIe link of one HCA; loopback transfers cross it twice.
  sim::ResourceId pcie(int node, int hca) const {
    return pcie_.at(index(node, hca));
  }
  /// Per-rail guard serializing per-message post cost (DMA doorbell etc.).
  sim::Semaphore& tx_post_lock(int node, int hca) {
    return tx_lock_.at(index(node, hca));
  }

  /// One core per rank: concurrent CPU-driven operations issued by the same
  /// rank serialize on this lock (NIC DMA does not take it).
  sim::Semaphore& cpu_lock(int grank) {
    return rank_lock_.at(static_cast<std::size_t>(grank));
  }

  // ---- Primitive timed operations ----

  /// CPU-driven copy on a node (both CMA single-copy and shm copies use
  /// this): payload rate capped at one core's copy bandwidth, consuming
  /// read+write memory traffic. Startup cost is paid by the caller.
  /// Unserialized building block — prefer cpu_copy_by.
  sim::Task<void> cpu_copy(int node, double bytes);

  /// CPU reduction sweep combining two operands into a destination:
  /// two reads + one write of memory traffic per payload byte.
  sim::Task<void> cpu_reduce(int node, double bytes);

  /// Copy / reduce executed by a specific rank: holds that rank's core for
  /// the duration, so copies a rank issues concurrently serialize. Charged
  /// to the rank's own socket.
  sim::Task<void> cpu_copy_by(int grank, double bytes);
  sim::Task<void> cpu_reduce_by(int grank, double bytes);

  /// Copy executed by `grank` whose source lives in `owner`'s memory:
  /// same-socket copies behave like cpu_copy_by; cross-socket copies read
  /// over the UPI link and touch both sockets' memories. Degenerates to
  /// cpu_copy_by on single-socket nodes; owner < 0 means "local".
  sim::Task<void> cpu_copy_between(int grank, int owner, double bytes);

  /// Flow specification for a NIC data path src->(wire)->dst on a given
  /// rail pair. Loopback (src_node == dst_node) consumes that node's memory
  /// twice (DMA read + DMA write).
  sim::FlowSpec nic_flow(int src_node, int src_hca, int dst_node, int dst_hca,
                         double bytes) const;

  /// Round-robin rail selection counter for small messages (per source
  /// node, as a NIC-level channel scheduler would). Dead rails are skipped;
  /// throws sim::SimError when the node has no usable rail left.
  int next_rail(int src_node);

  // ---- Rail health (fault injection, sim/fault.hpp) ----

  /// Install and arm a fault plan: kill/degrade events are scheduled as
  /// engine callbacks at their times; a transient spec activates drop
  /// injection. May be called more than once (events accumulate). The
  /// spec's `fault_plan` string, if any, is installed at construction.
  void install_faults(const sim::FaultPlan& plan);

  /// Called with every kill/degrade event when it fires (after the rail
  /// state flipped); the tracer wiring in mpi::World uses this to emit
  /// fault spans. hw itself stays trace-free.
  using FaultListener = std::function<void(const sim::FaultEvent&)>;
  void set_fault_listener(FaultListener fn) { fault_listener_ = std::move(fn); }

  bool rail_alive(int node, int hca) const {
    return rails_.at(index(node, hca)).alive;
  }
  /// Current bandwidth multiplier of a rail's ports, (0, 1].
  double rail_bw_factor(int node, int hca) const {
    return rails_.at(index(node, hca)).bw_factor;
  }
  /// Current per-post startup multiplier of a rail, >= 1.
  double rail_lat_factor(int node, int hca) const {
    return rails_.at(index(node, hca)).lat_factor;
  }
  int alive_rail_count(int node) const;
  /// Rail indices currently alive on `node`, ascending.
  std::vector<int> healthy_rails(int node) const;
  /// Smallest alive-rail count over all nodes (selector health input).
  int min_alive_rails() const;
  /// True when any rail is currently dead or degraded.
  bool rails_degraded() const noexcept { return degraded_count_ > 0; }
  /// Number of rails currently dead or degraded (observability).
  int degraded_count() const noexcept { return degraded_count_; }

  /// Transient-drop parameters, or nullptr when no transient injection.
  const sim::TransientSpec* transient_spec() const noexcept {
    return faults_.transient ? &*faults_.transient : nullptr;
  }
  /// Draw from the plan's deterministic drop stream: true when the post
  /// attempt numbered `attempt` (0-based) must fail. Bounded: attempts at
  /// or past `max_consecutive` always succeed, so retries make progress.
  bool transient_drop(int attempt);

 private:
  struct RailState {
    bool alive = true;
    double bw_factor = 1.0;
    double lat_factor = 1.0;
  };

  void apply_fault(const sim::FaultEvent& e);
  void apply_fault_to_rail(const sim::FaultEvent& e, int node, int hca);

  std::size_t index(int node, int hca) const {
    return static_cast<std::size_t>(node) * spec_.hcas_per_node + hca;
  }
  std::size_t sidx(int node, int socket) const {
    return static_cast<std::size_t>(node) * spec_.sockets_per_node + socket;
  }

  sim::Engine* eng_;
  ClusterSpec spec_;
  sim::FluidNetwork net_;
  std::vector<sim::ResourceId> mem_;          // per (node, socket)
  std::vector<sim::ResourceId> copy_engine_;  // per (node, socket)
  std::vector<sim::ResourceId> upi_;          // per node (sockets > 1)
  std::vector<sim::ResourceId> hca_tx_;
  std::vector<sim::ResourceId> hca_rx_;
  std::vector<sim::ResourceId> pcie_;
  // Stored flat (exact-reserved in the constructor, never resized after,
  // so the semaphore addresses handed out stay stable).
  std::vector<sim::Semaphore> tx_lock_;
  std::vector<sim::Semaphore> rank_lock_;
  std::vector<int> rail_rr_;
  std::vector<RailState> rails_;  // per (node, hca)
  sim::FaultPlan faults_;
  sim::Rng fault_rng_;
  int degraded_count_ = 0;  // rails currently dead or degraded
  FaultListener fault_listener_;
};

}  // namespace hmca::hw
