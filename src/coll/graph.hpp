// Chunk-granular dataflow execution for collectives.
//
// A collective is expressed as a `TaskGraph`: each task is one unit of work
// on one resource — a CPU copy, a shm publish, a NIC send, a CMA/RDMA read —
// typically covering a single chunk of a larger transfer. Edges are ready
// counters: a task becomes runnable when every predecessor has completed
// (and every registered *external* dependency — a net recv completion or an
// shm publication — has been satisfied through a callback). The
// `GraphExecutor` drains ready tasks onto lane resources (CPU copy engine,
// shm port, per-rail NIC admission) inside the discrete-event simulator,
// which is what turns the paper's hand-built phase-2/3 overlap into a
// general property: phase boundaries dissolve into data dependencies, so
// phase-1 tails, inter-node steps and shm distribution stream against each
// other chunk by chunk.
//
// Execution is deterministic: the ready queue is FIFO over task creation
// order, lanes are engine-owned semaphores with FIFO wakeups, and all
// scheduling flows through the (time, sequence)-ordered event queue.
//
// Failed tasks (a `sim::SimError` from the body, e.g. zero healthy rails
// during a transient window) are re-enqueued with a bounded backoff so the
// transfer retries after `net` has restriped — the dataflow analogue of
// rail-level retry. Exhausted retries surface the error from `run()`. A
// macro task (`TaskKind::kWrapped`) holds an SPMD rendezvous and fails
// without retry.
//
// Store-and-forward baselines (Bruck, the multi-leader and strict-barrier
// allgathers, the allgatherv Ring, pairwise alltoall(v)) are not task
// graphs: they run as plain coroutines under a `coll::PhaseSpan`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// What a task does — used for span labels and lane defaults.
enum class TaskKind {
  kCopy,     ///< local CPU copy (seed / unpack)
  kShmIn,    ///< copy into a shared region + publish
  kShmOut,   ///< copy a published chunk out of a shared region
  kSend,     ///< NIC send of one chunk
  kRecv,     ///< NIC recv of one chunk
  kCma,      ///< kernel-assisted intra-node read
  kRdma,     ///< HCA loopback / RDMA read
  kReduce,   ///< CPU reduction sweep
  /// A macro task: a whole sub-collective (phase-1 gather, address board,
  /// store-and-forward exchange) that holds an SPMD rendezvous, so it never
  /// retries.
  kWrapped,
};
const char* task_kind_name(TaskKind k);

/// Scheduling lane a task occupies while running. Lanes are admission
/// control (how many tasks of a class may be in flight); the hardware
/// model still arbitrates actual bandwidth via fluid resources.
enum class Lane {
  kNone,  ///< unconstrained (address exchange, macro tasks)
  kCpu,   ///< the rank's copy engine: tasks serialize like a CPU would
  kShm,   ///< shared-memory port
  kNic,   ///< NIC doorbell; per-rail when `rail` >= 0
};

struct TaskOpts {
  std::string label;  ///< short human label ("send s3", "get b5")
  std::string phase;  ///< phase attribution ("phase1".."phase3", "" = none)
  int chunk = -1;     ///< chunk index within the transfer, -1 = whole
  std::size_t bytes = 0;
  int rail = -1;  ///< NIC lane selector; -1 = striped/shared lane
  int peer = -1;  ///< peer global rank for the span, -1 = n/a
};

/// Dependency graph of chunk tasks. Build with `add` + `depend`, then hand
/// to a `GraphExecutor`. The graph is single-use.
class TaskGraph {
 public:
  using Body = std::function<sim::Task<void>()>;

  /// Add a task; returns its id (creation order = FIFO priority).
  int add(TaskKind kind, Lane lane, Body body, TaskOpts opts = {});

  /// `task` runs only after `on` completed.
  void depend(int task, int on);

  /// Register an external dependency (satisfied via
  /// `GraphExecutor::satisfy`, e.g. from a recv-completion or shm-publish
  /// callback). Returns nothing; each call adds one count.
  void depend_external(int task);

  std::size_t size() const noexcept { return nodes_.size(); }
  bool empty() const noexcept { return nodes_.empty(); }

 private:
  friend class GraphExecutor;
  struct Node {
    Body body;
    TaskKind kind;
    Lane lane;
    TaskOpts opts;
    int deps = 0;  ///< remaining predecessors (internal + external)
    std::vector<int> out;
  };
  std::vector<Node> nodes_;
  int externals_ = 0;
};

/// Byte ranges of a buffer mapped to the tasks that produce them; lets a
/// consumer (e.g. the first inter-node send of a chunk) depend on exactly
/// the phase-1 tasks covering its bytes.
class RangeProducers {
 public:
  void add(std::size_t offset, std::size_t len, int task) {
    if (len > 0) spans_.push_back({offset, offset + len, task});
  }
  /// Tasks whose ranges intersect [offset, offset + len).
  std::vector<int> covering(std::size_t offset, std::size_t len) const;

 private:
  struct Entry {
    std::size_t lo, hi;
    int task;
  };
  std::vector<Entry> spans_;
};

struct ExecOptions {
  int cpu_slots = 1;   ///< copies a rank runs concurrently (0 = unbounded)
  int shm_slots = 1;   ///< concurrent shm-port operations (0 = unbounded)
  int nic_slots = 0;   ///< per-rail NIC admission depth (0 = unbounded)
  int max_retries = 3;            ///< re-enqueues per task after SimError
  sim::Duration retry_backoff = 2e-6;  ///< base backoff (doubles per retry)
  /// Test hook: return true to fail the task's next attempt before the
  /// body runs (the executor treats it as a transient fault and retries).
  std::function<bool(int task, int attempt)> fail_injector;
};

/// Drains one rank's task graph. Single-use per `run` call; the executor
/// may be kept alive by completion callbacks, so allocate it to live at
/// least as long as the surrounding collective coroutine.
class GraphExecutor {
 public:
  GraphExecutor(sim::Engine& eng, obs::Sink& sink, int grank,
                ExecOptions opts = {});

  /// Execute the graph to completion. Throws the first task error after
  /// all in-flight tasks drained. Emits one `trace::Kind::kTask` span per
  /// task (chunk-tagged), per-phase kPhase spans, and the
  /// `coll.pipeline_depth` metric.
  sim::Task<void> run(TaskGraph& g);

  /// Resolve one external dependency of `task` (see
  /// `TaskGraph::depend_external`). Safe to call before `run` starts and
  /// while it is in flight; calling it more times than registered throws.
  void satisfy(int task);

  /// Peak number of concurrently running tasks during the last `run`.
  int pipeline_depth() const noexcept { return max_in_flight_; }
  /// Total re-enqueues after task faults during the last `run`.
  std::uint64_t retries() const noexcept { return retries_; }

 private:
  sim::Task<void> run_one(int id);
  sim::Semaphore* lane_sem(const TaskGraph::Node& n);
  void on_complete(int id);

  sim::Engine* eng_;
  obs::Sink* sink_;
  int grank_;
  ExecOptions opts_;

  TaskGraph* g_ = nullptr;
  sim::Condition cv_;
  std::deque<int> ready_;
  std::size_t completed_ = 0;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
  std::uint64_t retries_ = 0;
  std::exception_ptr error_;
  bool running_ = false;
  int ext_pending_ = 0;
  std::vector<int> early_satisfies_;

  // Lane guards, created on demand: kCpu/kShm each have one; kNic has one
  // per rail id (+1 so the striped lane -1 maps to slot 0).
  std::unique_ptr<sim::Semaphore> cpu_sem_;
  std::unique_ptr<sim::Semaphore> shm_sem_;
  std::vector<std::unique_ptr<sim::Semaphore>> nic_sems_;

  // Per-phase span bookkeeping: opened at the first task start of the
  // phase, closed when its last task completes. Phase names are interned
  // once at run() setup (first-appearance order); the hot per-task paths
  // then index instead of doing string-keyed lookups.
  struct PhaseState {
    std::string name;
    obs::Sink::Span span;
    int remaining = 0;
    bool open = false;
  };
  std::vector<PhaseState> phases_;
  std::vector<int> phase_idx_;  // per task id; -1 = no phase attribution
};

// ---- Chunk policy ----

/// Hard cap on chunks per transfer: bounds task-count blowup and keeps
/// (step, chunk) tag encodings inside the user tag space.
inline constexpr int kMaxChunks = 16;

/// Tag stride for chunked exchanges: step `s`, chunk `c` send/recv pairs
/// match on tag `s * kChunkTagStride + c`.
inline constexpr int kChunkTagStride = 32;
static_assert(kChunkTagStride >= kMaxChunks,
              "chunk tags would collide across steps");

/// A task body with no work of its own — used for recv-completion stubs
/// whose only job is to anchor external dependencies in the graph.
sim::Task<void> noop_task();

/// Chunk granularity configured via HMCA_CHUNK_BYTES (0 = auto). Read per
/// collective; `set_chunk_bytes_override` lets tests bypass the
/// environment (pass a negative value to restore env lookup).
std::size_t configured_chunk_bytes();
void set_chunk_bytes_override(long long bytes);

/// Number of chunks a transfer of `bytes` is split into. Auto policy:
/// transfers up to 64 KiB stay whole (per-chunk post overhead would beat
/// the streaming win); larger ones split at max(bytes/kMaxChunks, 64 KiB).
int chunks_for(std::size_t bytes);

/// Even chunk split with the remainder in the last chunk: byte range of
/// chunk `c` out of `chunks` over `bytes`, as {offset, len}.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t bytes, int chunks,
                                                int c);

}  // namespace hmca::coll
