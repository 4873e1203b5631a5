// Selection engine: resolves (communicator shape, message size) to a
// registered collective algorithm — the middle layer of the stack
// (coll/registry -> core/selector -> profiles).
//
// Resolution order for each call:
//   1. environment override (HMCA_ALLGATHER_ALGO / HMCA_ALLREDUCE_ALGO /
//      HMCA_ALLTOALL_ALGO / HMCA_REDUCE_SCATTER_ALGO) — pins any registry
//      entry by name for experiments; unknown or inapplicable names fail
//      loudly,
//   2. hierarchy override (HMCA_HIERARCHY, allgather only) — pins the
//      leader-hierarchy depth or a JSON HierarchySpec on multi-node world
//      communicators (core/hierarchy.hpp),
//   3. cost model (opt-in): rank every applicable registry entry by its
//      model/cost.hpp hook and take the cheapest,
//   4. static thresholds — the paper's defaults (the core/mha.hpp
//      small-message cutoffs, the Fig. 8 RD/Ring crossover) on flat nodes;
//      multi-socket worlds route to the depth-3 hierarchy the topology
//      supports (CommShape::natural_depth).
//
// Steps 1 and 3 and the decision record are written once and shared by the
// four families; each family keeps only its own steps (allgather's step 2,
// and every family's step-4 thresholds). Every decision is recorded as a
// trace::Kind::kPhase span (algorithm name + reason) when the communicator
// carries a tracer, so benches can show *why* a path was taken.
#pragma once

#include <cstddef>
#include <string>

#include "coll/registry.hpp"
#include "core/mha.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "osu/env.hpp"

namespace hmca::core {

/// Environment variables honored by the selection engine (aliases of the
/// typed osu::Env table, the single documented HMCA_* surface).
inline constexpr const char* kAllgatherAlgoEnv = osu::Env::kAllgatherAlgo;
inline constexpr const char* kAllreduceAlgoEnv = osu::Env::kAllreduceAlgo;
inline constexpr const char* kAlltoallAlgoEnv = osu::Env::kAlltoallAlgo;
inline constexpr const char* kReduceScatterAlgoEnv =
    osu::Env::kReduceScatterAlgo;

/// Register the MHA designs (mha_intra, mha_inter_{rd,ring}, single_leader,
/// numa3, ring_mha + composed rs_ag allreduce, mha bcast/allgatherv,
/// hier_leader alltoall) with the registry. Idempotent; invoked
/// automatically by the selector and the profiles.
void register_core_algorithms();

/// A resolved decision for one collective family. `fn` is the callable to
/// run — usually the registry entry's, but two steps bind options into a
/// wrapper (the hierarchy override's spec, the CPU-only offload of an
/// intra-node allgather with every loopback rail down).
template <class A>
struct Selection {
  const A* algo = nullptr;
  decltype(A::fn) fn;
  std::string reason;

  const std::string& name() const { return algo->name; }
};

using AllgatherSelection = Selection<coll::AllgatherAlgo>;
using AllreduceSelection = Selection<coll::AllreduceAlgo>;
using AlltoallSelection = Selection<coll::AlltoallAlgo>;
using ReduceScatterSelection = Selection<coll::ReduceScatterAlgo>;

class Selector {
 public:
  Selector() = default;

  /// Rank applicable registry entries by their cost hooks instead of the
  /// static thresholds (the env and hierarchy overrides still win).
  void set_use_cost_model(bool on) noexcept { use_cost_model_ = on; }
  bool use_cost_model() const noexcept { return use_cost_model_; }

  AllgatherSelection select_allgather(mpi::Comm& comm, int my,
                                      std::size_t msg) const;
  AllreduceSelection select_allreduce(mpi::Comm& comm, int my,
                                      std::size_t count,
                                      mpi::Dtype dtype) const;
  AlltoallSelection select_alltoall(mpi::Comm& comm, int my,
                                    std::size_t msg) const;
  ReduceScatterSelection select_reduce_scatter(mpi::Comm& comm, int my,
                                               std::size_t count,
                                               mpi::Dtype dtype) const;

 private:
  bool use_cost_model_ = false;
};

/// The process-wide selector used by mha_allgather / mha_allreduce and the
/// `mha` profile. Uses the static thresholds unless the cost model is on.
Selector& default_selector();

}  // namespace hmca::core
