// The primitive IR behind the compositional collective planner.
//
// HiCCL-style decomposition: every collective is a short *program* of
// rank-indexed data-movement primitives over three named byte spaces
// (`send`, `recv`, `scratch`):
//
//   multicast   one root's byte range appears at a destination offset of
//               every peer (a peer equal to the root is a local copy)
//   reduce      every peer's byte range is combined element-wise into the
//               root's identical range (the root's own data is the initial
//               accumulator), always in declared peer order, so float and
//               double reduces are deterministic
//   shard       declarative partition of a region into per-owner ranges
//               (no data movement; names who owns which bytes)
//   unshard     every shard owner multicasts its range to the peer set —
//               the direct allgather of the most recent shard declaration
//   fence       full ordering barrier between everything before and after
//
// A `Program` is SPMD: it describes every rank's part of one collective
// call. The planner (planner.hpp) builds it once per call, shares it among
// the ranks and lowers exactly each rank's share into the chunk-granular
// TaskGraph — multi-rail striping, pipelining, retry and telemetry spans
// come from the dataflow engine, not from the program.
//
// `Program::validate()` rejects malformed programs with errors that name
// the offending prim and shapes (see PlanError); the planner validates
// once per call, before any rank lowers, so a bad composition fails
// before any simulated byte moves.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/datatype.hpp"

namespace hmca::coll::prim {

/// Malformed-program error: the message names the prim index, its label
/// and the offending shape (range, peer, dtype...).
class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Op { kMulticast, kReduce, kShard, kUnshard, kFence };
const char* op_name(Op op);

/// Which of the three per-rank byte spaces a range addresses.
enum class Space { kSend, kRecv, kScratch };
const char* space_name(Space s);

struct Range {
  std::size_t off = 0;
  std::size_t len = 0;
};

/// One owner's slice of a sharded region.
struct Shard {
  int owner = 0;
  Range range;
};

struct Prim {
  Op op = Op::kFence;
  int root = 0;              ///< multicast source / reduce accumulator rank
  std::vector<int> peers;    ///< multicast destinations / reduce contributors
  Space src_space = Space::kRecv;
  Space dst_space = Space::kRecv;
  Range src;                 ///< multicast source range / reduce range
  std::size_t dst_off = 0;   ///< multicast destination offset
  mpi::Dtype dtype = mpi::Dtype::kByte;
  mpi::ReduceOp rop = mpi::ReduceOp::kSum;
  std::vector<Shard> shards; ///< kShard only
  std::string label;         ///< telemetry span label ("" = op name)
  std::string phase;         ///< phase attribution for the executor spans
};

/// An SPMD primitive program over `nranks` ranks. The byte sizes declare
/// the extent of each space; every range must stay inside them. Build with
/// the fluent helpers (each returns the new prim for label/phase tweaks)
/// and call `validate()` — or hand it to the Planner, which validates
/// first.
struct Program {
  int nranks = 0;
  std::size_t send_bytes = 0;
  std::size_t recv_bytes = 0;
  std::size_t scratch_bytes = 0;
  std::vector<Prim> prims;

  Prim& multicast(int root, std::vector<int> peers, Space src_space,
                  Range src, Space dst_space, std::size_t dst_off);
  /// Peers combine into the root in the order listed in `peers`.
  Prim& reduce(int root, std::vector<int> peers, Space space, Range range,
               mpi::Dtype dtype, mpi::ReduceOp rop);
  Prim& shard(Space space, std::vector<Shard> shards);
  Prim& unshard(Space space, std::vector<int> peers);
  Prim& fence();

  std::size_t space_bytes(Space s) const;

  /// Structural checks; throws PlanError naming the prim and the shape.
  void validate() const;
};

/// A resolved leader hierarchy in planner-neutral form, innermost level
/// first. Level 0's groups partition all ranks; a level-l group's members
/// are leaders of level l-1 groups (so higher levels hold scattered rank
/// ids — hence explicit member lists, not contiguous ranges). The topmost
/// level has exactly one group. Builders take this instead of
/// core::Hierarchy so coll stays below core in the layering (core
/// converts; see core/hierarchy.hpp).
struct PlanGroup {
  std::vector<int> members;
  int leader = 0;  ///< must be one of `members`
};
struct PlanLevel {
  std::vector<PlanGroup> groups;
};
using PlanLevels = std::vector<PlanLevel>;

}  // namespace hmca::coll::prim
