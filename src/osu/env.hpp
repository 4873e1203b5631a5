// Typed accessors over the HMCA_* environment variables — the single place
// the process environment is read (benches, selector, conformance suite all
// route through here; see the README "Environment variables" table).
//
//   HMCA_ALLGATHER_ALGO    pin a registry allgather (selector step 1)
//   HMCA_ALLREDUCE_ALGO    pin a registry allreduce (selector step 1)
//   HMCA_ALLTOALL_ALGO     pin a registry alltoall (selector step 1)
//   HMCA_REDUCE_SCATTER_ALGO  pin a registry reduce_scatter (selector step 1)
//   HMCA_FAULTS            rail fault plan (sim/fault.hpp spec string)
//   HMCA_CONFORMANCE_SEED  conformance-suite sampling seed (strtoull base 0)
//   HMCA_STATS             stats report format: text|json|csv (off|0 = none)
//   HMCA_CHUNK_BYTES       dataflow chunk granularity in bytes (0 = auto)
//   HMCA_HIERARCHY         leader-hierarchy depth override: auto|2|3|@file
//                          (selector step 2; core::hierarchy_from_env)
//   HMCA_GIT_SHA           source revision for provenance stamps (CI sets
//                          it; falls back to `git rev-parse`)
//
// Unknown HMCA_*-prefixed variables are reported once per process (typo
// guard: a misspelled override silently reverting to defaults is the worst
// failure mode an env knob can have).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace hmca::osu {

/// Output format of the `--stats` / HMCA_STATS report.
enum class StatsFormat { kText, kJson, kCsv };

/// "", "1", "on", "true", "text" -> kText; "json"; "csv". Throws
/// std::invalid_argument on anything else (`what` names the offending
/// flag/variable in the message).
StatsFormat parse_stats_format(std::string_view value, const char* what);

/// Parsed stats/trace request of one bench invocation (from `--stats` /
/// `--trace` flags or HMCA_STATS; see osu/algo_flag.hpp).
struct StatsOptions {
  bool enabled = false;  ///< print the per-invocation stats report
  StatsFormat format = StatsFormat::kText;
  std::string trace_path;   ///< write a Chrome-trace JSON here ("" = none)
  std::string report_path;  ///< write an HTML dashboard here ("" = none)
};

/// The typed environment surface. Accessors return std::nullopt when the
/// variable is unset or empty, so call sites read as
///   if (auto algo = Env::allgather_algo()) { ... }
class Env {
 public:
  static constexpr const char* kAllgatherAlgo = "HMCA_ALLGATHER_ALGO";
  static constexpr const char* kAllreduceAlgo = "HMCA_ALLREDUCE_ALGO";
  static constexpr const char* kAlltoallAlgo = "HMCA_ALLTOALL_ALGO";
  static constexpr const char* kReduceScatterAlgo =
      "HMCA_REDUCE_SCATTER_ALGO";
  static constexpr const char* kFaults = "HMCA_FAULTS";
  static constexpr const char* kConformanceSeed = "HMCA_CONFORMANCE_SEED";
  static constexpr const char* kStats = "HMCA_STATS";
  static constexpr const char* kChunkBytes = "HMCA_CHUNK_BYTES";
  static constexpr const char* kHierarchy = "HMCA_HIERARCHY";
  static constexpr const char* kGitSha = "HMCA_GIT_SHA";

  static std::optional<std::string> allgather_algo();
  static std::optional<std::string> allreduce_algo();
  static std::optional<std::string> alltoall_algo();
  static std::optional<std::string> reduce_scatter_algo();
  static std::optional<std::string> faults();
  /// Raw HMCA_HIERARCHY value ("auto", "2", "3" or "@/path/spec.json");
  /// core::hierarchy_from_env does the parse so osu stays hierarchy-free.
  static std::optional<std::string> hierarchy();

  /// strtoull base-0 (so 0x... hex seeds work); digit-free garbage throws
  /// std::invalid_argument rather than silently seeding with 0.
  static std::optional<std::uint64_t> conformance_seed();

  /// Parsed HMCA_STATS; "0"/"off"/"no"/"false" read as unset (disabled).
  /// Malformed values throw std::invalid_argument.
  static std::optional<StatsFormat> stats();

  /// The source revision stamped into provenance blocks: HMCA_GIT_SHA when
  /// set (CI passes the exact checkout), else `git rev-parse --short=12
  /// HEAD`, else "unknown". Resolved once per process — both the stats
  /// writer and perf::detect_environment stamp the same value.
  static std::string git_sha();

  /// Raw lookup: nullopt when `var` is unset or empty.
  static std::optional<std::string> raw(const char* var);

  /// Scan the process environment for HMCA_*-prefixed names outside the
  /// table above and describe each on `os`; returns how many were found.
  static int warn_unknown(std::ostream& os);

  /// warn_unknown(std::cerr), at most once per process. Bench entry points
  /// call this; libraries stay silent.
  static void warn_unknown_once();
};

}  // namespace hmca::osu
