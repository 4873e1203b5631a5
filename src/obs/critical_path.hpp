// Critical-path analysis over the span stream.
//
// The simulator's spans form an implicit dependency graph: a span cannot
// start until the work it waits on has finished, and message spans carry a
// `peer` edge to the rank that produced the data. The analyzer walks that
// graph backward from the last-finishing activity, at each step picking the
// latest-ending span that could have released the current one (same rank
// first, then the peer rank), yielding the longest dependency chain of one
// collective invocation — the part where speeding anything else up would
// not move the finish line.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {

struct CriticalPathReport {
  /// One chain link, in chronological order.
  struct Step {
    int rank;
    trace::Kind kind;
    sim::Time t0;
    sim::Time t1;
    int peer;
    std::size_t bytes;
    std::string label;
    std::string phase;  ///< innermost enclosing kPhase label, "" if none
  };

  std::vector<Step> steps;
  sim::Duration total = 0;  ///< sum of step durations
  std::map<std::string, sim::Duration> by_kind;
  std::map<std::string, sim::Duration> by_phase;
  /// phase -> kind -> time: the joint attribution the diff tool aligns on
  /// ("phase2/nic_xfer got slower" is actionable where either margin alone
  /// is ambiguous). Steps outside any phase land under "".
  std::map<std::string, std::map<std::string, sim::Duration>> by_phase_kind;
  std::string dominant_kind;   ///< longest kind on the path, kWait excluded
                               ///< unless the path is pure wait
  std::string dominant_phase;  ///< longest phase on the path, "" if none

  bool empty() const noexcept { return steps.empty(); }

  /// {"total_us":.., "dominant_kind":.., "dominant_phase":..,
  ///  "by_kind":{..}, "by_phase":{..}, "by_phase_kind":{..}, "steps":[..]}
  void write_json(std::ostream& os, int indent = 0) const;

  /// One-line human summary, e.g.
  /// "critical path 412.3 us over 9 spans; dominant kind nic_xfer
  ///  (61%), dominant phase phase2".
  std::string summary() const;
};

/// Walk `spans` backward from the latest-ending non-phase span and return
/// the longest dependency chain. Phase (kPhase) spans are not chain links;
/// they only provide the per-step `phase` attribution. Each span is on the
/// chain at most once. O(n log n + steps * (log n + phases per rank)): the
/// link spans are indexed once by end time per rank, per peer and overall.
CriticalPathReport analyze_critical_path(const std::vector<trace::Span>& spans);

/// Fraction of phase-3 time that overlaps phase-2 time, computed on the
/// merged interval unions of kPhase spans labelled "phase2" / "phase3"
/// across all ranks. Returns 0 when no phase-3 spans exist (flat runs).
/// O(n log n): one sort per union, then a single sweep over both.
double phase_overlap_fraction(const std::vector<trace::Span>& spans);

}  // namespace hmca::obs
