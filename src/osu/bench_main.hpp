// Shared entry point for the fig* bench binaries.
//
// Every fig bench used to repeat the same scaffold: register the algorithm
// registry, parse --algo/--faults/--stats, print the fault banner, build a
// StatsSession, run tables, flush the stats report. bench_main owns all of
// it; a bench is now just a body over BenchContext:
//
//   int main(int argc, char** argv) {
//     return osu::bench_main("fig11_intra_allgather", argc, argv,
//                            [](osu::BenchContext& ctx) { ... });
//   }
//
// The scaffold also adds `--json`: the tables and shape-check notes are
// buffered and emitted as one machine-readable document
//   {"bench": ..., "tables": [{"title","headers","rows"}], "notes": [...]}
// with exactly the formatted numbers the human tables show, so campaign
// tooling and humans read the same values. `--stats` output is unchanged
// and composes with --json (the stats block prints after the document).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "hw/spec.hpp"
#include "osu/algo_flag.hpp"
#include "osu/harness.hpp"
#include "osu/stats.hpp"

namespace hmca::osu {

/// Table/note collector: prints immediately in human mode, buffers and
/// emits one JSON document in --json mode.
class BenchOutput {
 public:
  BenchOutput(bool json, std::ostream& os) : json_(json), os_(os) {}

  /// Emit a finished table.
  void table(const Table& t);
  /// Emit a free-form line (fault banner, shape-check summary).
  void note(const std::string& text);
  /// In --json mode, write the buffered document. Called by bench_main.
  void finish(const std::string& bench);

  /// True in --json mode — benches with human-only output (e.g. the
  /// fig02 ASCII timeline) guard on this.
  bool json() const noexcept { return json_; }

 private:
  bool json_;
  std::ostream& os_;
  std::vector<Table> tables_;
  std::vector<std::string> notes_;
};

/// Everything a bench body needs: parsed flags, the stats session, the
/// output channel and the measured subject (the MHA profile by default,
/// or the --algo-pinned registry entry).
struct BenchContext {
  AlgoFlag flag;
  std::string subject;  ///< column header: flag.name or "mha"
  StatsSession stats;
  BenchOutput out;

  BenchContext(AlgoFlag f, std::string bench, std::ostream& os);

  /// `spec` with the --topo overrides applied and the --faults/HMCA_FAULTS
  /// plan attached.
  hw::ClusterSpec faulted(hw::ClusterSpec spec) const;

  /// The measured subject, resolved by osu::subject_*: the --algo-pinned
  /// registry entry, else "mha" (the MHA profile; the selection engine for
  /// alltoall and reduce-scatter). Resolution throws on unknown names
  /// (bench_main reports it).
  coll::AllgatherFn subject_allgather() const;
  coll::AllreduceFn subject_allreduce() const;
  coll::AlltoallFn subject_alltoall() const;
  coll::ReduceScatterFn subject_reduce_scatter() const;

  /// True when the default MHA subject was replaced via --algo (benches
  /// suppress MHA-specific shape-check notes then).
  bool pinned() const noexcept { return !flag.name.empty(); }
};

/// Run `body` under the shared scaffold. Returns the process exit code:
/// 0 on success, 1 with the message on stderr when parsing or the body
/// throws.
int bench_main(const std::string& bench, int argc, char** argv,
               const std::function<void(BenchContext&)>& body);

}  // namespace hmca::osu
