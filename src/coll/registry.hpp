// Collective-algorithm registry: the bottom layer of the selection stack
// (registry -> selection engine -> profiles), modeled on Open MPI's `coll`
// framework and MVAPICH's tuning infrastructure.
//
// Every Allgather / Allgatherv / Allreduce / Bcast / Alltoall(v) /
// Reduce_scatter implementation registers here by name together with
//   - an *applicability predicate* over the communicator shape (power-of-two
//     size, node-major world layout, divisible ppn, multi-node, ...) so a
//     selector never dispatches into an algorithm that would throw, and
//   - an optional *cost-estimate hook* bound to the analytic models in
//     model/cost.hpp, letting cost-model-driven selection rank candidates.
//
// An entry carries no execution mode: how its callable runs (a native task
// graph, a planner program or a plain coroutine under a PhaseSpan) is the
// algorithm's own business.
//
// Each family is one public AlgoTable member of the registry, used
// directly: `reg.allgather.add(...)`, `reg.alltoall.get(name)`,
// `reg.reduce_scatter.entries()`. The flat algorithms of this library
// register during `Registry::instance()` bootstrap; the paper's MHA designs
// register via `core::register_core_algorithms()` (called by the selection
// engine and the profiles). Registration order is preserved for listings
// (`--algo list`).
#pragma once

#include <cstddef>
#include <functional>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allgatherv.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/buffer.hpp"
#include "model/params.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// Pluggable broadcast signature (`data` is input at root, output elsewhere).
using BcastFn = std::function<sim::Task<void>(mpi::Comm&, int my, int root,
                                              hw::BufView data)>;

/// Pluggable allgatherv signature (see coll/allgatherv.hpp for buffer
/// conventions).
using AllgathervFn = std::function<sim::Task<void>(
    mpi::Comm&, int my, hw::BufView send, hw::BufView recv, const VarLayout&,
    bool in_place)>;

/// The communicator shape an applicability predicate / cost hook sees.
struct CommShape {
  int comm_size = 1;  ///< ranks in the communicator
  int nodes = 1;      ///< distinct nodes spanned by the communicator
  int ppn = 1;        ///< cluster processes per node
  int hcas = 1;       ///< adapters *installed* per node
  int sockets = 1;    ///< NUMA sockets per node
  bool world = false; ///< comm is the (node-major) world communicator
  /// Smallest count of currently-alive rails over the nodes the
  /// communicator spans (== hcas on a healthy cluster, 0 when some node
  /// lost every adapter). Selection consults this so degraded shapes route
  /// to algorithms that still fit the surviving topology.
  int healthy_hcas = 1;

  /// True when some spanned node has lost or degraded rail capacity.
  bool degraded() const noexcept { return healthy_hcas < hcas; }

  /// Leader-hierarchy depth the topology naturally supports: 3 when the
  /// shape spans multiple nodes with multi-socket NUMA (socket < node <
  /// cluster), else 2 (node < cluster). The selector's depth routing and
  /// core::HierarchySpec::derive(spec, 0) agree on this.
  int natural_depth() const noexcept {
    return nodes > 1 && sockets > 1 ? 3 : 2;
  }

  /// Level-structure summary of the shape, outermost first — e.g.
  /// "cluster:1>node:4>socket:8" for 4 nodes of 2 sockets. Matches
  /// core::Hierarchy::structure() for the derived hierarchy; used in
  /// selector decision reasons.
  std::string level_structure() const;

  static CommShape of(const mpi::Comm& comm);
};

/// True when the algorithm can run on this shape for this per-process
/// message size (bytes). A null predicate means "always applicable".
using Applicability = std::function<bool(const CommShape&, std::size_t msg)>;

/// Estimated completion time in seconds (analytic, for ranking candidates —
/// not a promise of absolute accuracy). A null hook means "no estimate".
using CostFn = std::function<double(const model::ModelParams&,
                                    const CommShape&, std::size_t msg)>;

/// Allreduce applicability depends on count divisibility, not only bytes,
/// so that family predicates over (shape, element count, element size).
using AllreduceApplicability =
    std::function<bool(const CommShape&, std::size_t count,
                       std::size_t elem_size)>;

/// One registered algorithm. Every collective family is an instantiation of
/// this record with its call signature (`Fn`) and applicability predicate
/// type (`Applies`); the per-family names below are thin aliases. The
/// `msg` a cost hook sees is the family's natural size: per-process bytes
/// (allgather), total vector bytes (allreduce), payload bytes (bcast),
/// total gathered bytes (allgatherv).
template <class Fn, class Applies>
struct Algo {
  std::string name;
  std::string summary;  ///< one line for `--algo list`
  Fn fn;
  Applies applies;  ///< null = always applicable
  CostFn cost;      ///< null = no estimate
};

using AllgatherAlgo = Algo<AllgatherFn, Applicability>;
using AllreduceAlgo = Algo<AllreduceFn, AllreduceApplicability>;
using BcastAlgo = Algo<BcastFn, Applicability>;
using AllgathervAlgo = Algo<AllgathervFn, Applicability>;
/// Alltoall applicability sees the per-pair block size; alltoallv sees the
/// exchange's total byte count; reduce_scatter predicates like allreduce
/// (count divisibility matters).
using AlltoallAlgo = Algo<AlltoallFn, Applicability>;
using AlltoallvAlgo = Algo<AlltoallvFn, Applicability>;
using ReduceScatterAlgo = Algo<ReduceScatterFn, AllreduceApplicability>;

/// One family's ordered table: registration-order iteration, name lookup,
/// duplicate rejection. `what` names the family in error messages.
template <class A>
class AlgoTable {
 public:
  explicit AlgoTable(const char* what) : what_(what) {}

  void add(A a) {
    if (a.name.empty()) {
      throw std::invalid_argument(std::string("registry: ") + what_ +
                                  " algorithm must have a name");
    }
    if (!a.fn) {
      throw std::invalid_argument(std::string("registry: ") + what_ + " '" +
                                  a.name + "' has no implementation");
    }
    if (find(a.name) != nullptr) {
      throw std::invalid_argument(std::string("registry: duplicate ") + what_ +
                                  " algorithm '" + a.name + "'");
    }
    entries_.push_back(std::move(a));
  }

  const A* find(const std::string& name) const noexcept {
    for (const auto& a : entries_) {
      if (a.name == name) return &a;
    }
    return nullptr;
  }

  const A& get(const std::string& name) const {
    if (const A* a = find(name)) return *a;
    std::string msg = std::string("registry: unknown ") + what_ +
                      " algorithm '" + name + "' (known:";
    for (const auto& a : entries_) msg += " " + a.name;
    msg += ")";
    throw std::invalid_argument(msg);
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& a : entries_) out.push_back(a.name);
    return out;
  }

  const std::deque<A>& entries() const noexcept { return entries_; }

 private:
  const char* what_;
  std::deque<A> entries_;
};

/// Process-wide algorithm registry: one public AlgoTable per collective
/// family, used directly (`reg.allgather.get("ring")`,
/// `reg.alltoall.entries()`). Single-threaded (like the simulator); `add`
/// throws std::invalid_argument on duplicate names.
class Registry {
 public:
  /// The registry, with the flat `coll` algorithms already registered.
  static Registry& instance();

  AlgoTable<AllgatherAlgo> allgather{"allgather"};
  AlgoTable<AllreduceAlgo> allreduce{"allreduce"};
  AlgoTable<BcastAlgo> bcast{"bcast"};
  AlgoTable<AllgathervAlgo> allgatherv{"allgatherv"};
  AlgoTable<AlltoallAlgo> alltoall{"alltoall"};
  AlgoTable<AlltoallvAlgo> alltoallv{"alltoallv"};
  AlgoTable<ReduceScatterAlgo> reduce_scatter{"reduce_scatter"};

 private:
  Registry() = default;
};

}  // namespace hmca::coll
