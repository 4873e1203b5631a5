// Cluster description: topology counts, link rates, protocol thresholds.
//
// The default numbers are calibrated to the paper's testbed, the HPC
// Advisory Council "Thor" cluster (Sec. 5.1): dual-socket Broadwell nodes,
// 32 cores/node, 2x ConnectX-6 HDR100 adapters (100 Gb/s = 12.5 GB/s per
// direction per rail), DDR4-2400 memory.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace hmca::hw {

class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct ClusterSpec {
  // ---- Topology ----
  int nodes = 2;          ///< N: number of nodes
  int ppn = 2;            ///< L: processes per node
  int hcas_per_node = 2;  ///< H: network adapters per node
  /// NUMA sockets per node (paper Sec. 7 future work). 1 = flat node (the
  /// paper's evaluated configuration). With more sockets, memory and the
  /// copy engine split per socket, ranks and HCAs are block-distributed
  /// over sockets, and cross-socket copies traverse the UPI link.
  ///
  /// Block distribution (the contract every layer shares — Cluster's
  /// socket_of_local/hca_socket and the socket level of a resolved
  /// HierarchySpec): socket s owns node-local ranks
  ///   [ceil(s*L/S), ceil((s+1)*L/S))
  /// i.e. `socket_of_local(l) = floor(l*S/L)`. When L % S != 0 the spans
  /// stay contiguous and balanced (sizes differ by at most one, earlier
  /// sockets get the larger spans: L=7, S=2 -> {4, 3}). HCAs distribute
  /// the same way: `hca_socket(h) = floor(h*S/H)`, so H=3, S=2 puts
  /// adapters {0, 1} on socket 0 and adapter {2} on socket 1. Neither L
  /// nor H needs to divide evenly; every socket must host at least one
  /// rank (S <= L, enforced by validate()).
  int sockets_per_node = 1;
  /// Inter-socket (UPI/QPI) payload bandwidth per node, each direction.
  double upi_bw = 18e9;

  // ---- Rail characteristics (per HCA, per direction) ----
  double hca_bw = 12.5e9;        ///< payload bytes/s (HDR100)
  double hca_startup = 0.8e-6;   ///< alpha_H: serialized per-message post cost
  double wire_latency = 0.3e-6;  ///< switch + wire traversal
  double ctrl_latency = 0.3e-6;  ///< RTS/CTS control message cost

  // ---- Memory system (per node) ----
  /// Aggregate memory traffic capacity. Dual-socket DDR4-2400, 8 channels:
  /// ~153 GB/s peak, ~115 GB/s sustained.
  double mem_bw = 115e9;
  /// Per-flow payload cap for one CPU core driving a copy (Broadwell
  /// single-thread memcpy). Matches Fig. 1: intra-node CMA pt2pt bandwidth
  /// plateaus at about one rail's worth.
  double core_copy_bw = 11e9;
  /// Aggregate payload rate of concurrent CPU-driven copies on a node
  /// (kernel-copy / LLC / ring-bus contention). This is the physical origin
  /// of the paper's `b` and `cg` congestion factors: concurrent CMA/shm
  /// copies degrade well before the raw memory roof. NIC DMA engines do
  /// not contend for it.
  double copy_engine_bw = 30e9;
  /// Per-HCA PCIe throughput (Gen3 x16). A *loopback* transfer crosses the
  /// link twice (DMA out + DMA in), halving effective loopback bandwidth —
  /// the reason offloading to H adapters adds BW_H*H/2, not BW_H*H, of
  /// intra-node capacity.
  double pcie_bw = 12.5e9;
  double cma_startup = 0.9e-6;       ///< alpha_C: process_vm_readv syscall
  double shm_copy_startup = 0.25e-6; ///< alpha_L: shared-memory copy setup
  /// Memory traffic generated per payload byte by NIC DMA on each side.
  double nic_mem_weight = 1.0;
  /// Memory traffic per payload byte of a CPU copy (read + write).
  double cpu_copy_mem_weight = 2.0;

  // ---- Protocol thresholds ----
  std::size_t eager_threshold = 8192;   ///< <=: eager, else rendezvous
  /// Messages larger than this are striped across all rails; below it a
  /// single rail is chosen round-robin (Sec. 2.1: rail saturates at 16 KB).
  std::size_t stripe_threshold = 16384;
  /// Intra-node: messages <= this go through a double-copy shared-memory
  /// bounce; larger ones use a CMA single copy (Sec. 2.3: the double copy
  /// degrades at >= 16 KB).
  std::size_t intra_single_copy_threshold = 16384;
  double intra_handshake_latency = 0.3e-6;  ///< intra-node pairing cost
  double loopback_latency = 0.4e-6;         ///< HCA loopback traversal

  // ---- Simulation mode ----
  /// true: buffers hold real bytes and every transfer memcpy's payloads
  /// (correctness tests). false: phantom buffers, timing only (large-scale
  /// benches where materializing 1024 ranks' buffers is infeasible).
  bool carry_data = true;

  // ---- Fault injection ----
  /// Fault plan spec (sim/fault.hpp grammar), parsed and armed by the
  /// Cluster at construction. Empty = healthy run. Carried on the spec so
  /// every world builder (tests, OSU harness, benches) threads faults
  /// without signature changes.
  std::string fault_plan;

  int total_ranks() const { return nodes * ppn; }

  /// The paper's testbed (Thor): 2 HDR100 rails/node.
  static ClusterSpec thor(int nodes, int ppn) {
    ClusterSpec s;
    s.nodes = nodes;
    s.ppn = ppn;
    return s;
  }

  /// A ThetaGPU-like 8-rail node (Sec. 1 motivation) for rail-count sweeps.
  static ClusterSpec multi_rail(int nodes, int ppn, int hcas) {
    ClusterSpec s;
    s.nodes = nodes;
    s.ppn = ppn;
    s.hcas_per_node = hcas;
    return s;
  }

  /// Thor with its dual sockets modeled explicitly (Sec. 7: NUMA-aware
  /// 3-level designs). Memory/copy-engine capacities are per socket.
  static ClusterSpec thor_numa(int nodes, int ppn) {
    ClusterSpec s = thor(nodes, ppn);
    s.sockets_per_node = 2;
    s.mem_bw /= 2;
    s.copy_engine_bw /= 2;
    return s;
  }

  void validate() const {
    auto require = [](bool ok, const char* what) {
      if (!ok) throw SpecError(std::string("ClusterSpec: ") + what);
    };
    require(nodes >= 1, "nodes must be >= 1");
    require(ppn >= 1, "ppn must be >= 1");
    require(hcas_per_node >= 1, "hcas_per_node must be >= 1");
    require(sockets_per_node >= 1, "sockets_per_node must be >= 1");
    // ppn need not divide evenly (the block distribution balances uneven
    // spans), but every socket must host at least one rank, and the
    // shared-memory key scheme bounds the per-node fanout.
    require(sockets_per_node <= ppn,
            "sockets_per_node must be <= ppn (every socket hosts a rank)");
    require(sockets_per_node <= 8, "sockets_per_node must be <= 8");
    require(upi_bw > 0, "upi_bw must be > 0");
    require(hca_bw > 0, "hca_bw must be > 0");
    require(mem_bw > 0, "mem_bw must be > 0");
    require(core_copy_bw > 0, "core_copy_bw must be > 0");
    require(copy_engine_bw > 0, "copy_engine_bw must be > 0");
    require(pcie_bw > 0, "pcie_bw must be > 0");
    require(hca_startup >= 0 && wire_latency >= 0 && ctrl_latency >= 0 &&
                cma_startup >= 0 && shm_copy_startup >= 0,
            "latencies must be >= 0");
    require(nic_mem_weight > 0 && cpu_copy_mem_weight > 0,
            "memory weights must be > 0");
  }
};

/// Fluent, validated ClusterSpec construction — the front door for benches
/// and tests that used to poke struct fields directly:
///
///   auto spec = hw::ClusterSpecBuilder(hw::ClusterSpec::thor(4, 32))
///                   .sockets(2).hcas(4).build();
///
/// Every setter checks its argument eagerly (SpecError naming the field);
/// build() runs the full ClusterSpec::validate() so cross-field shape
/// errors surface before a world is constructed. `sockets(k)` keeps the
/// *node-total* memory and copy-engine capacity fixed and splits it per
/// socket (the thor_numa convention): re-socketing the same node never
/// changes its aggregate roofline.
class ClusterSpecBuilder {
 public:
  /// Start from the paper's Thor defaults (2 nodes x 2 ppn).
  ClusterSpecBuilder() : ClusterSpecBuilder(ClusterSpec{}) {}
  /// Start from an existing spec (per-socket capacities are re-derived
  /// from its socket count, so `sockets()` stays total-preserving).
  explicit ClusterSpecBuilder(ClusterSpec base);

  ClusterSpecBuilder& nodes(int n);
  ClusterSpecBuilder& ppn(int l);
  ClusterSpecBuilder& hcas(int h);
  ClusterSpecBuilder& sockets(int s);
  ClusterSpecBuilder& hca_bw(double bytes_per_sec);
  ClusterSpecBuilder& upi_bw(double bytes_per_sec);
  ClusterSpecBuilder& carry_data(bool on);

  /// The validated spec; throws SpecError naming the offending shape.
  ClusterSpec build() const;

 private:
  ClusterSpec spec_;
  double node_mem_bw_;   // node-total memory capacity (socket-independent)
  double node_copy_bw_;  // node-total copy-engine capacity
};

/// Apply `--topo` key=value overrides onto `base` and validate the result.
/// Grammar: comma-separated `key=value` with keys
///   nodes, ppn, hcas, sockets     (positive integers)
///   hca_bw, upi_bw                (bytes/s, e.g. 12.5e9)
/// Empty `topo` returns `base` unchanged. Throws SpecError naming the bad
/// key or value. `sockets=` uses the builder's total-preserving split.
ClusterSpec apply_topo(ClusterSpec base, const std::string& topo);

}  // namespace hmca::hw
