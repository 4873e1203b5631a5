// The observability name inventory: every span label convention, metric
// name, timeline track and phase annotation the stack emits, in one place.
//
// Before this header the same literals lived at each emit site (net, shm,
// core, coll, mpi) *and* in each analyzer (timeline, utilization, stats,
// perf runner) — a typo on either side silently dropped the series from
// every report. Emitters and analyzers now share these constants, and the
// golden test over `all_names()` (tests/obs/test_names.cpp) pins the full
// inventory so a rename cannot happen on one side only.
//
// Constants are `const char*` (not string_view) so they drop into every
// existing call shape: Sink::count(string_view), Labels pairs, TaskOpts
// string fields and string concatenation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace hmca::obs::names {

// ---- Metric names (obs::Metrics counters / gauges / histograms) ----
inline constexpr const char* kNetRailBytes = "net.rail.bytes";    // counter
inline constexpr const char* kNetRailPosts = "net.rail.posts";    // counter
inline constexpr const char* kNetRetries = "net.retries";         // counter
inline constexpr const char* kNetRestripes = "net.restripes";     // counter
inline constexpr const char* kNetRxReroute = "net.rx_reroute";    // counter
inline constexpr const char* kShmCopyBytes = "shm.copy_bytes";    // counter
inline constexpr const char* kTaskRetries = "coll.task_retries";  // counter
inline constexpr const char* kOffloadD = "core.offload_d";        // gauge
inline constexpr const char* kPipelineDepth = "coll.pipeline_depth";  // hist

// ---- Timeline tracks (obs::ResourceSample + obs::build_timeline) ----
// Raw sample tracks (what emitters record):
inline constexpr const char* kTrackNetRail = "net.rail";
inline constexpr const char* kTrackNetRailHealth = "net.rail.health";
inline constexpr const char* kTrackSimFlows = "sim.flows";
// Derived tracks (what build_timeline produces):
inline constexpr const char* kTrackNetRailBytes = "net.rail.bytes";
inline constexpr const char* kTrackNetRailBusy = "net.rail.busy";
inline constexpr const char* kTrackCpuCopyBusy = "cpu.copy_busy";
inline constexpr const char* kTrackShmCopyRate = "shm.copy_bytes_per_s";
inline constexpr const char* kTrackPhaseOccupancy = "phase.occupancy";

// ---- Label keys ----
inline constexpr const char* kLabelNode = "node";
inline constexpr const char* kLabelRail = "rail";
inline constexpr const char* kLabelPhase = "phase";
inline constexpr const char* kLabelRank = "rank";

// ---- Phase annotations (kPhase span labels) ----
inline constexpr const char* kPhase1 = "phase1";  ///< intra-node gather
inline constexpr const char* kPhase2 = "phase2";  ///< inter-node exchange
inline constexpr const char* kPhase3 = "phase3";  ///< intra-node broadcast
/// The single phase of flat (non-hierarchical) algorithms: ring, rd,
/// bruck, direct, pairwise and friends run one logical exchange stage, so
/// their spans attribute here instead of staying phase-less. When a paper
/// phase (phase1..3) also encloses a span — a flat algorithm used as a
/// building block inside a hierarchical one — the paper phase wins
/// (critical_path.cpp phase_of).
inline constexpr const char* kPhaseExchange = "exchange";
/// Annotation-only kPhase label prefixes. Spans starting with these are
/// decisions/events, not algorithm phases: analyzers must skip them when
/// attributing phase time.
inline constexpr const char* kSelectPrefix = "select:";
inline constexpr const char* kFaultPrefix = "fault:";
/// Dataflow task span labels: "task:<kind>[:<label>][#c<chunk>]".
inline constexpr const char* kTaskPrefix = "task:";
inline constexpr const char* kChunkSep = "#c";

/// True when a kPhase label is an annotation (selector decision, fault
/// event) rather than an algorithm phase.
inline bool is_annotation(std::string_view label) {
  return label.rfind(kSelectPrefix, 0) == 0 ||
         label.rfind(kFaultPrefix, 0) == 0;
}

/// Strip the "#c<chunk>" suffix off a task span label so runs with
/// different chunk counts align structurally ("task:nic_send:p2#c3" and
/// "task:nic_send:p2#c7" are the same logical task).
inline std::string_view strip_chunk(std::string_view label) {
  const std::size_t pos = label.rfind(kChunkSep);
  if (pos == std::string_view::npos) return label;
  // Only strip when what follows is a pure chunk number.
  for (std::size_t i = pos + 2; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') return label;
  }
  return pos + 2 < label.size() ? label.substr(0, pos) : label;
}

// ---- Resource classes ----
// The canonical cpu/nic/shm/wait partition of span kinds, shared by the
// utilization analyzer and the diff attribution. kPhase/kTask are
// containers (their time is carried by the spans inside them) and map to
// "".
inline constexpr const char* kClassCpu = "cpu";
inline constexpr const char* kClassNic = "nic";
inline constexpr const char* kClassShm = "shm";
inline constexpr const char* kClassWait = "wait";

inline const char* resource_class(trace::Kind k) {
  switch (k) {
    case trace::Kind::kCompute:
      return kClassCpu;
    case trace::Kind::kNicXfer:
    case trace::Kind::kIsend:
    case trace::Kind::kIrecv:
      return kClassNic;
    case trace::Kind::kCopyIn:
    case trace::Kind::kCopyOut:
    case trace::Kind::kCmaCopy:
      return kClassShm;
    case trace::Kind::kWait:
      return kClassWait;
    case trace::Kind::kPhase:
    case trace::Kind::kTask:
      return "";
  }
  return "";
}

/// resource_class() by kind *name* — for consumers that read serialized
/// tables keyed by kind_name strings (stats JSON, bench metrics). Unknown
/// names map to "".
inline const char* resource_class_of_name(std::string_view kind_name_str) {
  constexpr trace::Kind kKinds[] = {
      trace::Kind::kIsend,   trace::Kind::kIrecv,   trace::Kind::kWait,
      trace::Kind::kCopyIn,  trace::Kind::kCopyOut, trace::Kind::kCmaCopy,
      trace::Kind::kNicXfer, trace::Kind::kCompute, trace::Kind::kPhase,
      trace::Kind::kTask,
  };
  for (const trace::Kind k : kKinds) {
    if (kind_name_str == trace::kind_name(k)) return resource_class(k);
  }
  return "";
}

/// Resource class of a dataflow task-kind token (coll::task_kind_name
/// values, the second ':'-field of a task span label). "wrapped" is a
/// macro task enclosing a whole sub-collective — no single class — and
/// maps to "".
/// The tokens are mirrored here (not included from coll/) because obs
/// sits below coll in the link order; the golden name test pins both
/// sides.
inline const char* task_resource_class(std::string_view token) {
  if (token == "copy" || token == "reduce") return kClassCpu;
  if (token == "send" || token == "recv" || token == "rdma") return kClassNic;
  if (token == "shm_in" || token == "shm_out" || token == "cma") {
    return kClassShm;
  }
  return "";
}

/// Resource class of a span, seeing *through* task containers: a kTask
/// span classifies by its label's task-kind token ("task:rdma:hca b1" ->
/// nic) so critical paths made of dataflow tasks still attribute to
/// cpu/nic/shm instead of vanishing into the "" container class.
/// True for the span of a macro task ("task:wrapped:<label>"): a whole
/// sub-collective inside a native graph, such as a phase-1 gather or an
/// address board. It covers every inner span of that step on its rank, so
/// path/choke analyses must treat it like a kPhase container, not
/// activity.
inline bool is_wrapped_task(std::string_view label) {
  if (label.rfind(kTaskPrefix, 0) != 0) return false;
  std::string_view rest = label.substr(5);
  const std::size_t end = rest.find_first_of(":#");
  return (end == std::string_view::npos ? rest : rest.substr(0, end)) ==
         "wrapped";
}

inline const char* span_resource_class(trace::Kind k, std::string_view label) {
  if (k != trace::Kind::kTask) return resource_class(k);
  if (label.rfind(kTaskPrefix, 0) != 0) return "";
  std::string_view rest = label.substr(5);  // after "task:"
  // The kind token ends at the optional ":<label>" or "#c<chunk>" suffix.
  const std::size_t end = rest.find_first_of(":#");
  return task_resource_class(
      end == std::string_view::npos ? rest : rest.substr(0, end));
}

// ---- Inventory (golden-test surface) ----
struct NameInfo {
  const char* name;
  const char* kind;  ///< "counter" | "gauge" | "histogram" | "track" |
                     ///< "derived-track" | "phase" | "prefix" | "label-key"
};

/// Every name above, in a fixed order. The golden test asserts the exact
/// contents; extending the inventory means extending the test's expected
/// list in the same change.
inline const NameInfo* all_names(std::size_t* count) {
  static constexpr NameInfo kInventory[] = {
      {"net.rail.bytes", "counter"},
      {"net.rail.posts", "counter"},
      {"net.retries", "counter"},
      {"net.restripes", "counter"},
      {"net.rx_reroute", "counter"},
      {"shm.copy_bytes", "counter"},
      {"coll.task_retries", "counter"},
      {"core.offload_d", "gauge"},
      {"coll.pipeline_depth", "histogram"},
      {"net.rail", "track"},
      {"net.rail.health", "track"},
      {"sim.flows", "track"},
      {"net.rail.bytes", "derived-track"},
      {"net.rail.busy", "derived-track"},
      {"cpu.copy_busy", "derived-track"},
      {"shm.copy_bytes_per_s", "derived-track"},
      {"phase.occupancy", "derived-track"},
      {"phase1", "phase"},
      {"phase2", "phase"},
      {"phase3", "phase"},
      {"exchange", "phase"},
      {"select:", "prefix"},
      {"fault:", "prefix"},
      {"task:", "prefix"},
      {"node", "label-key"},
      {"rail", "label-key"},
      {"phase", "label-key"},
      {"rank", "label-key"},
      // coll::task_kind_name tokens mirrored by task_resource_class().
      {"copy", "task-kind"},
      {"shm_in", "task-kind"},
      {"shm_out", "task-kind"},
      {"send", "task-kind"},
      {"recv", "task-kind"},
      {"cma", "task-kind"},
      {"rdma", "task-kind"},
      {"reduce", "task-kind"},
      {"wrapped", "task-kind"},
  };
  *count = sizeof(kInventory) / sizeof(kInventory[0]);
  return kInventory;
}

}  // namespace hmca::obs::names
