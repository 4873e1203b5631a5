// Artifact loaders for the diff attribution (obs/diff.hpp).
//
// The diff engine aligns RunSummary vectors; this module produces them
// from any of the three artifact families the repo writes:
//
//   stats   StatsSession kJson output (--stats=json): per-invocation
//           critical-path tables, utilization rails/rail_phases, metric
//           counters, world fingerprint, selector decisions. The richest
//           source — every attribution margin is present.
//   bench   BENCH_*.json from the campaign runner: per-point flat metric
//           maps (cp_phase_*/cp_kind_*/rail*_busy_frac/net_rail*_bytes)
//           plus the point's selector decision. The world fingerprint is
//           reconstructed from the scenario's topology fields, so a stats
//           run and a bench run of the same shape carry identical strings.
//   trace   Chrome trace JSON (--trace=...): spans are rebuilt from the
//           event args (kind/peer/bytes/label) and fed through the live
//           summarize_invocation path. No counters or rail samples — the
//           diff still attributes phase/resource/task time.
//
// The family is sniffed from the parsed document, never from the file
// name, so `hmca-diff old.json new.json` works on any pairing — including
// cross-family (a stats run against a bench run), where only the margins
// both sides carry produce attributions.
//
// Lives in perf (not obs) because loading requires perf::Json; obs stays
// free of parser dependencies.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/diff.hpp"
#include "perf/json.hpp"

namespace hmca::perf {

/// One loaded artifact: label + provenance for the report header, one
/// RunSummary per invocation / sweep point.
struct LoadedRun {
  std::string path;
  std::string format;  ///< "stats" | "bench" | "trace"
  std::string label;   ///< bench name / campaign label / "trace"
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<obs::RunSummary> runs;
};

/// Read and parse a JSON file, or the JSON object that ends a stats
/// transcript (bench tables, then the stats block on stdout): when the file
/// is not pure JSON, parse from the last line that is exactly "{" (same
/// recovery as tools/validate_json.py). Throws JsonError when the file
/// cannot be read or parsed.
Json parse_json_or_transcript(const std::string& path);

/// Artifact family of a parsed document: "bench" (format=="hmca-bench-1"),
/// "trace" (has traceEvents), "stats" (has bench + invocations). Throws
/// std::invalid_argument naming the top-level keys when none match.
std::string sniff_artifact(const Json& doc);

LoadedRun load_stats_run(const Json& doc, std::string path);
LoadedRun load_bench_run(const Json& doc, std::string path);
LoadedRun load_trace_run(const Json& doc, std::string path);

/// Read + parse + sniff + dispatch. Accepts stats transcripts (human
/// output followed by one JSON object) with the same trailing-object
/// recovery as tools/validate_json.py. Throws JsonError on unreadable or
/// unparseable files, std::invalid_argument on unrecognized documents.
LoadedRun load_run_artifact(const std::string& path);

/// Load both sides and diff: report labels are the file paths, provenance
/// blocks come from the artifacts, and a note is added when the two files
/// are different artifact families.
obs::DiffReport diff_artifacts(const std::string& base_path,
                               const std::string& next_path,
                               const obs::DiffOptions& opts = {});

}  // namespace hmca::perf
