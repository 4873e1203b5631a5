// Declarative n-level leader hierarchies (the API behind every
// hierarchical collective in core/).
//
// A HierarchySpec names the levels of the leader hierarchy from the
// innermost grouping outward — e.g. socket < node < cluster — without
// saying anything about a concrete machine. Resolving it against a
// hw::Cluster yields a Hierarchy: the concrete contiguous rank groups of
// every level, their leaders, and the intra-node staging plan
// (core::NodePlan) the allgather engine executes. The paper's designs are
// points in this space:
//
//   depth 2  (node < cluster)            = MHA-inter (Sec. 3.2)
//   depth 3  (socket < node < cluster)   = the Sec. 7 NUMA design
//   depth >= 3 with adapter-group/custom = the generalized n-level builder
//
// The spec is the only configuration of the hierarchical allgather and
// bcast. At depth 2 the allgather's node transport picks phase 1 (auto or
// mha-intra: MHA-intra with the Eq. 1 offload; cma: no offload; shm: the
// double-copy gather) and the cluster transport picks phase 2 (auto, rd or
// ring); no Hierarchy is built. Every deeper spec, the socket one
// included, resolves into a Hierarchy and runs its staged NodePlan.
// Specs come from three places: HierarchySpec::derive (topology-driven),
// JSON (schemas/hierarchy.schema.json), or the HMCA_HIERARCHY environment
// variable (hierarchy_from_env).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/prim/program.hpp"
#include "core/hierarchical.hpp"
#include "hw/buffer.hpp"
#include "hw/cluster.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Invalid spec, spec/topology mismatch, or malformed JSON.
class HierarchyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What a level groups ranks by. kCluster appears exactly once, as the
/// outermost level; kNode exactly once, directly below it. Levels below
/// the node partition its local ranks: kSocket by the NUMA block
/// distribution, kAdapterGroup by the HCA a rank's block traffic uses
/// (floor(local * hcas / ppn), needs hcas <= ppn), kCustom by explicit
/// node-local boundaries.
enum class LevelKind { kSocket, kAdapterGroup, kNode, kCluster, kCustom };

/// Transport hint for the exchange *into* a level's groups. kAuto picks
/// the historical default everywhere. Legal placements (checked at
/// resolve time): kMhaIntra/kCma only on the innermost level, kShm on the
/// innermost level of a depth-2 spec or any intermediate level (where the
/// staged exchange is shared-memory anyway), kRd/kRing only on the
/// cluster level (they pin phase 2).
enum class LevelTransport { kAuto, kMhaIntra, kCma, kShm, kRd, kRing };

/// How a group elects its leader. Only first-rank leadership exists today
/// (the contiguous block distribution makes it the NUMA-local choice);
/// the enum keeps the knob in the schema.
enum class LeaderPolicy { kFirstRank };

const char* to_string(LevelKind k);
const char* to_string(LevelTransport t);

struct HierLevel {
  LevelKind kind = LevelKind::kNode;
  LevelTransport transport = LevelTransport::kAuto;
  LeaderPolicy leader = LeaderPolicy::kFirstRank;
  /// kCustom only: first node-local rank of every group, ascending,
  /// starting at 0 (the final boundary, ppn, is implicit).
  std::vector<int> custom_firsts;
};

/// The declarative hierarchy: levels ordered innermost -> outermost.
struct HierarchySpec {
  std::vector<HierLevel> levels;

  int depth() const noexcept { return static_cast<int>(levels.size()); }

  /// Structural validation (machine-independent): >= 2 levels, kCluster
  /// exactly once and outermost, kNode exactly once and second-outermost,
  /// custom_firsts present exactly on kCustom levels and well-formed.
  /// Throws HierarchyError.
  void validate() const;

  /// The paper's depth-2 MHA hierarchy (node < cluster) with the given
  /// node and cluster transports; all kAuto is MHA-inter (Sec. 3.2).
  static HierarchySpec mha(LevelTransport node = LevelTransport::kAuto,
                           LevelTransport cluster = LevelTransport::kAuto);

  /// Topology-driven spec: depth 2 (node < cluster) or depth 3
  /// (socket < node < cluster). depth 0 picks 3 on multi-socket nodes and
  /// 2 otherwise; an explicit depth 3 collapses to 2 on single-socket
  /// nodes (a one-socket level adds nothing). Other depths throw — deeper
  /// hierarchies are expressed via JSON/custom levels.
  static HierarchySpec derive(const hw::ClusterSpec& spec, int depth = 0);

  /// Parse the schemas/hierarchy.schema.json document format:
  ///   {"levels": [{"kind": "socket"}, {"kind": "node"},
  ///               {"kind": "cluster", "transport": "rd"}]}
  /// Validates structurally before returning.
  static HierarchySpec from_json(const std::string& text);
  std::string to_json() const;
};

/// One resolved group: a contiguous global-rank span and its leader.
struct HierGroup {
  int first = 0;
  int size = 0;
  int leader = 0;
};

struct ResolvedLevel {
  LevelKind kind = LevelKind::kNode;
  LevelTransport transport = LevelTransport::kAuto;
  std::vector<HierGroup> groups;  ///< ascending by first rank
};

/// A HierarchySpec bound to a concrete cluster: every level's groups are
/// materialized and the spec/topology consistency rules are enforced —
/// each level partitions the world into contiguous spans, inner levels
/// refine outer ones (every outer boundary is an inner boundary), and
/// every group's leader is the leader of the innermost group containing
/// it. Construction throws HierarchyError on any violation.
class Hierarchy {
 public:
  Hierarchy(HierarchySpec spec, const hw::Cluster& cluster);

  const HierarchySpec& spec() const noexcept { return spec_; }
  int depth() const noexcept { return static_cast<int>(levels_.size()); }
  /// Innermost -> outermost, same order as the spec.
  const std::vector<ResolvedLevel>& levels() const noexcept { return levels_; }
  /// Group index of a global rank at `level` (levels() index).
  int group_of(int level, int grank) const;
  /// Human/selector-facing summary, outermost first:
  /// "cluster:1>node:4>socket:8".
  std::string structure() const;
  /// The intra-node staging plan the allgather engine runs: node-local
  /// group boundaries of every level at or below the node, innermost
  /// first (the node level contributes the final {0} stage).
  NodePlan node_plan() const;

 private:
  HierarchySpec spec_;
  std::vector<ResolvedLevel> levels_;
  std::vector<std::vector<int>> node_firsts_;  // per level <= node
  int ppn_ = 1;
};

/// Allgather over the world communicator (node-major rank order, equal
/// PPN) following `spec`; `msg` bytes contributed per process (engine:
/// core/hierarchical.hpp). Depth-2 specs run MHA-inter with the phase-1
/// path their node transport names; deeper specs build the resolved
/// hierarchy's NodePlan and run it as phase 1. A `cma` innermost transport
/// turns the MHA-intra offload off; an `rd`/`ring` cluster transport pins
/// phase 2, `auto` resolves it with resolve_phase2. `overlap` true (the
/// paper's design) runs a chunk-granular task graph: phase-2 sends start
/// as soon as the phase-1 tasks producing their bytes land, and members
/// drain phase-3 chunks while later inter-node steps are in flight; false
/// runs strictly sequential phases (Kandalla et al.), the overlap ablation
/// and the "barrier" baseline of the perf campaign's pipeline pair. The
/// spec is taken by value: the coroutine owns its copy, so callers may
/// pass temporaries (registry lambdas do).
sim::Task<void> allgather_hierarchy(mpi::Comm& comm, int my, hw::BufView send,
                                    hw::BufView recv, std::size_t msg,
                                    bool in_place, HierarchySpec spec,
                                    bool overlap = true);

/// Broadcast following `spec`: root -> node-leader handoff, inter-node
/// leader broadcast striped over all rails (scatter-allgather, binomial
/// when the payload does not split evenly), then a top-down shared-memory
/// cascade through the intra-node levels. Each group leader republishes
/// to its child-group leaders, pipelined in `pipeline_chunk` byte chunks;
/// the last stage fans out to single ranks, so at depth 2 the cascade is
/// one node-wide publish. Only depth >= 3 builds a Hierarchy.
sim::Task<void> bcast_hierarchy(mpi::Comm& comm, int my, int root,
                                hw::BufView data, HierarchySpec spec,
                                std::size_t pipeline_chunk = 256 * 1024);

/// Planner-neutral view of a resolved hierarchy for the primitive-program
/// builders (coll/prim/builders.hpp): level 0 keeps each innermost
/// group's full member list; every higher level's groups hold the leaders
/// of the lower-level groups they contain. The topmost cluster level ends
/// up with one group of the top leaders.
coll::prim::PlanLevels plan_levels(const Hierarchy& h);

/// The HMCA_HIERARCHY environment override: unset/""/"auto" -> nullopt
/// (selector policy decides), "2"/"3" -> HierarchySpec::derive at that
/// depth, "@/path/to/spec.json" -> from_json on the file contents.
/// Malformed values throw HierarchyError.
std::optional<HierarchySpec> hierarchy_from_env(const hw::ClusterSpec& spec);

}  // namespace hmca::core
