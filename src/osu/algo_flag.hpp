// `--algo` / `--faults` command-line support for the OSU-style bench
// binaries: list the algorithm registry or pin one entry by name, bypassing
// profile/selector dispatch (the CLI face of the registry -> selector ->
// profiles stack), and inject a rail fault plan into every measured world.
//
// Usage accepted by parse_algo_flag:
//   bench_binary                 # default comparison table
//   bench_binary --algo list     # print registry entries and exit
//   bench_binary --algo ring     # pin the "ring" allgather everywhere
//   bench_binary --algo=ring
//   bench_binary --faults 'kill:node=0,hca=1,t=5e-6'   # sim/fault.hpp spec
//   bench_binary --faults=@plan.json                   # read spec from file
//   bench_binary --topo sockets=2,hcas=2   # override topology (hw::apply_topo)
//   bench_binary --stats         # per-invocation stats report (text)
//   bench_binary --stats=json    # ... machine-readable (or csv)
//   bench_binary --trace out.json  # Chrome-trace export of the last run
//   bench_binary --report out.html # self-contained HTML telemetry dashboard
//   bench_binary --json          # tables+notes as one JSON document
//
// When no --faults / --stats flag is given, the HMCA_FAULTS / HMCA_STATS
// environment variables are consulted (via osu::Env), so both reach
// binaries without flag plumbing. Unknown HMCA_* variables warn once.
//
// Callers that want the MHA designs listed must register them first
// (core::register_core_algorithms()); this header deliberately depends only
// on the registry layer.
#pragma once

#include <iosfwd>
#include <string>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/spec.hpp"
#include "osu/env.hpp"

namespace hmca::osu {

/// Environment variable consulted when no --faults flag is present.
inline constexpr const char* kFaultsEnv = Env::kFaults;

struct AlgoFlag {
  std::string name;    ///< empty = no --algo given
  bool list = false;   ///< --algo list
  std::string faults;  ///< fault plan spec (--faults or HMCA_FAULTS)
  std::string topo;    ///< --topo key=value overrides (empty = none)
  StatsOptions stats;  ///< --stats / --trace / HMCA_STATS request
  bool json = false;   ///< --json: machine-readable table output
};

/// Extract `--algo <name>` / `--algo=<name>` / `--algo list`,
/// `--faults <spec|@file>`, `--stats[=text|json|csv]`, `--trace <file>`
/// and `--report <file>` from argv; absent --faults / --stats fall back to
/// HMCA_FAULTS /
/// HMCA_STATS. The plan is parse-checked eagerly so typos fail before any
/// measurement. Throws std::invalid_argument on a dangling flag, a
/// malformed plan or a bad stats format; other arguments are ignored.
AlgoFlag parse_algo_flag(int argc, char** argv);

/// `spec` with the flag's fault plan attached (no-op when none was given).
hw::ClusterSpec with_faults(hw::ClusterSpec spec, const AlgoFlag& flag);

/// `spec` with the flag's `--topo` overrides applied (hw::apply_topo) and
/// then the fault plan attached. Benches route every measured spec through
/// this so one flag re-shapes the whole table; throws hw::SpecError on a
/// bad key/value against this base spec.
hw::ClusterSpec with_topo_and_faults(hw::ClusterSpec spec,
                                     const AlgoFlag& flag);

/// Print every registry entry (name + one-line summary) per collective.
void print_algo_list(std::ostream& os);

/// An AllgatherFn running the named registry entry. The name is resolved
/// eagerly (throws on unknown names, listing the registry); applicability
/// is checked per call so shape errors name the offending algorithm.
coll::AllgatherFn pinned_allgather(const std::string& name);

/// Same for Allreduce.
coll::AllreduceFn pinned_allreduce(const std::string& name);

/// Same for Alltoall / Reduce-scatter.
coll::AlltoallFn pinned_alltoall(const std::string& name);
coll::ReduceScatterFn pinned_reduce_scatter(const std::string& name);

}  // namespace hmca::osu
