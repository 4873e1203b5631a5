// Deterministic rail fault injection.
//
// A FaultPlan is a pure data description of what goes wrong and when:
//   - kill     : an HCA becomes fail-stop at virtual time t (no new posts;
//                flows already in flight drain normally),
//   - degrade  : a rail's bandwidth is scaled by `bw_factor` (<= 1) and its
//                per-message post cost by `lat_factor` (>= 1) from time t,
//   - transient: every rail post is dropped with probability `rate`; the
//                net layer must retry with bounded exponential backoff.
//
// Plans are parsed from a compact spec string (env `HMCA_FAULTS`, bench
// `--faults`) or a JSON array, or generated from a seeded sim::Rng for the
// randomized conformance harness. Everything downstream of a plan is
// deterministic: events fire at fixed virtual times through the engine's
// (time, sequence) order and transient drops consume a dedicated xoshiro
// stream seeded from the plan, so the same plan + seed reproduces
// byte-identical traces.
//
// Spec grammar (entries separated by ';', fields by ','):
//   kill:node=0,hca=1,t=5e-6
//   degrade:node=*,hca=0,t=0,bw=0.5,lat=2
//   flaky:rate=0.05,burst=2,seed=7,backoff=2e-6,backoff_max=64e-6
// `node`/`hca` accept `*` (or -1) for "every node" / "every rail".
// JSON form: [{"kind":"kill","node":0,"hca":1,"t":5e-6}, ...].
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hmca::sim {

class FaultPlanError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class FaultKind { kKill, kDegrade };

/// Smallest accepted degrade bandwidth factor. A rail's factor becomes a
/// fluid weight of 1 / bw and a rate cap of bw times the port rate, so a
/// factor near zero would turn into a huge weight and a near-zero cap.
inline constexpr double kMinBwFactor = 1e-3;

/// One timed rail fault. node/hca -1 broadcast over all nodes/rails.
struct FaultEvent {
  FaultKind kind = FaultKind::kKill;
  int node = -1;
  int hca = -1;
  Time t = kTimeZero;
  double bw_factor = 1.0;   ///< degrade: rail bandwidth multiplier [1e-3, 1]
  double lat_factor = 1.0;  ///< degrade: post-cost multiplier (>= 1)

  /// Human-readable summary ("kill n0.h1 @5e-06s"), used for trace spans.
  std::string describe() const;
};

/// Transient send-failure injection, active for the whole run.
struct TransientSpec {
  double rate = 0.0;          ///< per-post drop probability in [0, 1)
  int max_consecutive = 3;    ///< drops never exceed this per message post
  double backoff_base = 2e-6; ///< first retry delay (doubles per attempt)
  double backoff_max = 64e-6; ///< backoff ceiling
  std::uint64_t seed = 0x5eedu;

  /// Retry delay before attempt `attempt` (1-based): bounded exponential.
  double backoff(int attempt) const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  std::optional<TransientSpec> transient;

  bool empty() const { return events.empty() && !transient.has_value(); }

  /// Parse a spec string (compact grammar above) or a JSON array. Throws
  /// FaultPlanError with the offending entry on malformed input.
  static FaultPlan parse(const std::string& text);

  /// Canonical compact-spec rendering; parse(to_string()) round-trips.
  std::string to_string() const;

  /// Validate against a topology: node/hca indices in range, factors sane.
  void validate(int nodes, int hcas) const;

  // ---- Randomized plan generation (conformance harness) ----

  /// Fault-plan families the conformance suite sweeps.
  enum class Category { kNone, kKill, kDegrade, kTransient, kMixed };

  static const char* category_name(Category c);

  /// A random plan of the given category for a (nodes x hcas) topology,
  /// drawn from `rng`. Kill plans always leave at least one rail index
  /// alive on *every* node (a "protected" rail is never killed anywhere),
  /// so any pair of nodes keeps a usable path and MHA loopback offload
  /// keeps at least one adapter.
  static FaultPlan random(Rng& rng, int nodes, int hcas, Category cat);
};

}  // namespace hmca::sim
