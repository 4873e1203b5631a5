// The planner: plans a primitive Program (program.hpp) once per
// collective call, then lowers this rank's share against its buffers into
// the chunk-granular dataflow TaskGraph and runs it.
//
// Planning is rank-independent, so it happens once per call: the first
// rank to arrive builds the program, validates it, splits it into transfer
// units (multicasts, unshard shards, reduces) and numbers their wire tags;
// every rank of the communicator takes the same plan through the
// communicator's NodeShare and lowers only its own unit list.
//
// Lowering rules (DESIGN.md section 15):
//
//   * Every transfer splits into `chunks_for(len)` chunk tasks; wire tags
//     come from one per-ordered-pair sequence counter advanced in program
//     order at plan time, so tag budgets scale with per-pair traffic
//     instead of program length.
//   * Receives into user-visible ranges are deferred: a "post" task posts
//     the irecvs only once every earlier reader/writer of the destination
//     range has completed (write-after-read safety for in-place
//     programs), and per-chunk stub tasks anchor the completions as
//     external dependencies, so downstream consumers stream chunk by
//     chunk.
//   * Read/write range dependencies are tracked per space with
//     RangeProducers (+ a reader list for WAR edges); `fence` collapses
//     everything before it into one milestone task.
//   * Reduce contributions land in private per-peer staging buffers and
//     are combined into the root's range by a per-chunk CPU reduce chain
//     in declared peer order, so every reduce is deterministic by
//     construction.
//
// The program's `send`/`recv` spaces map onto the caller's buffers; the
// `scratch` space is allocated lazily, only on ranks whose share of the
// program touches it.
#pragma once

#include <functional>

#include "coll/prim/program.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace hmca::coll::prim {

class Planner {
 public:
  /// SPMD entry: every rank of `comm` calls it once per collective call.
  /// The first rank to arrive runs `build` and plans its program; each
  /// rank then lowers its own share of that plan and executes it. Throws
  /// PlanError on a malformed program, or one whose transfers overrun the
  /// wire-tag budget of a rank pair, before any simulated byte moves (a
  /// throwing `build` or plan leaves nothing shared, so every rank throws).
  static sim::Task<void> run(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv,
                             std::function<Program()> build);
};

}  // namespace hmca::coll::prim
