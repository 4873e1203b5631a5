// Per-invocation stats capture for the bench binaries: every measurement
// taken through a StatsSession runs with a collecting obs::Sink, and the
// session derives a uniform machine-readable report — selector decisions,
// per-rail byte counters, retry/restripe counts, phase-2/3 overlap fraction
// and the critical-path breakdown of each invocation.
//
// The report prints after the human tables (`--stats`, `--stats=json`,
// `--stats=csv`, or HMCA_STATS), so `bench --stats=json | tail -n +K` style
// extraction and the checked-in schema (schemas/stats.schema.json) both
// work. `--trace <file>` additionally exports the *last* measured
// invocation as Chrome-trace JSON loadable in Perfetto / chrome://tracing,
// and `--report <file>` renders every captured invocation into one
// self-contained HTML dashboard (obs/report.hpp).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "obs/utilization.hpp"
#include "osu/env.hpp"
#include "trace/trace.hpp"

namespace hmca::osu {

/// Compact topology fingerprint of the world a measurement ran in, e.g.
/// "nodes=2,ppn=8,hcas=2,sockets=1". Two artifacts are only meaningfully
/// diffable when their fingerprints match — hmca-diff refuses mismatched
/// worlds the same way the comparator refuses cross-probe wallclock
/// comparisons.
std::string world_fingerprint(const hw::ClusterSpec& spec);

/// One measured collective invocation with its observability capture.
struct InvocationStats {
  std::string subject;  ///< bench column, e.g. "mha", "hpcx"
  std::string op;  ///< "allgather" | "allreduce" | "alltoall" | "reduce_scatter"
  std::string world;  ///< topology fingerprint of the measured spec
  std::size_t msg_bytes = 0;
  double seconds = 0;  ///< slowest-rank completion time
  /// Unique "select:..." decision span labels, in first-seen order (empty
  /// when the measured fn bypasses the selector).
  std::vector<std::string> decisions;
  double overlap_fraction = 0;  ///< phase-2/3 overlap (0 for flat runs)
  obs::CriticalPathReport critical_path;
  obs::Metrics metrics;
  obs::Timeline timeline;    ///< bucketed resource series (virtual time)
  obs::Utilization util;     ///< per-rank/per-rail attribution
};

/// Owns the stats/trace request of one bench process. When disabled, the
/// measure_* methods are exactly the plain harness calls; when enabled they
/// run under a collecting sink and append an InvocationStats record.
class StatsSession {
 public:
  StatsSession(StatsOptions opts, std::string bench);

  /// True when measurements must run under a collecting sink (a stats
  /// report, a trace file or an HTML report was requested).
  bool enabled() const noexcept {
    return opts_.enabled || !opts_.trace_path.empty() ||
           !opts_.report_path.empty();
  }

  double measure_allgather(const hw::ClusterSpec& spec,
                           const std::string& subject,
                           const coll::AllgatherFn& fn, std::size_t msg);
  double measure_allreduce(const hw::ClusterSpec& spec,
                           const std::string& subject,
                           const coll::AllreduceFn& fn, std::size_t bytes);
  double measure_alltoall(const hw::ClusterSpec& spec,
                          const std::string& subject,
                          const coll::AlltoallFn& fn, std::size_t msg);
  double measure_reduce_scatter(const hw::ClusterSpec& spec,
                                const std::string& subject,
                                const coll::ReduceScatterFn& fn,
                                std::size_t bytes);

  const std::vector<InvocationStats>& invocations() const noexcept {
    return recs_;
  }

  /// Append one provenance entry (key order is emission order). The
  /// constructor seeds "git_sha"; bench_main adds "faults" when a fault
  /// plan is active.
  void set_provenance(std::string key, std::string value);
  const std::vector<std::pair<std::string, std::string>>& provenance()
      const noexcept {
    return provenance_;
  }

  /// The report in the requested format.
  void write(std::ostream& os) const;
  /// Chrome-trace JSON of the last measured invocation.
  void write_trace(std::ostream& os) const;
  /// The self-contained HTML dashboard of every captured invocation (the
  /// last invocation additionally contributes its span strip).
  void write_report(std::ostream& os) const;

  /// Print the report to `os` (when `--stats` asked for one) and write the
  /// trace file (when `--trace` did) and the HTML dashboard (when
  /// `--report` did). Call once, after the last measurement; no-op when
  /// all are off.
  void finish(std::ostream& os) const;

 private:
  /// A harness measurement of one family (osu::measure_*).
  template <class Fn>
  using Harness = double (*)(hw::ClusterSpec, const Fn&, std::size_t,
                             obs::Sink&);

  /// The measure_* methods' one path: run `measure` under the null sink
  /// when disabled, else under a collecting sink, and record the capture
  /// as an `op` invocation.
  template <class Fn>
  double capture(const char* op, Harness<Fn> measure,
                 const hw::ClusterSpec& spec, const std::string& subject,
                 const Fn& fn, std::size_t msg_bytes);

  StatsOptions opts_;
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<InvocationStats> recs_;
  std::vector<trace::Span> last_spans_;
};

}  // namespace hmca::osu
