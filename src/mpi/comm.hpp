// Mini-MPI communicators, requests and point-to-point operations over the
// simulated cluster.
//
// Ranks run SPMD as coroutines; every operation takes the caller's
// comm-local rank explicitly (the simulation equivalent of "which process
// am I"). Sub-communicators (node-local groups, the leader group) remap
// local ranks to global ranks and isolate matching via a context id folded
// into the wire tag, exactly like real MPI context ids. A World has one
// observability channel, the obs::Sink it is built with; every
// communicator's instrumentation goes there.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "hw/buffer.hpp"
#include "hw/cluster.hpp"
#include "net/net.hpp"
#include "obs/sink.hpp"
#include "shm/shm.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace hmca::mpi {

inline constexpr int kAnySource = net::kAnySource;
inline constexpr int kAnyTag = net::kAnyTag;
inline constexpr int kMaxUserTag = (1 << 16) - 1;

class World;

/// Handle to a nonblocking operation. Copyable; wait via Comm::wait*.
class Request {
 public:
  Request() = default;
  bool valid() const noexcept { return static_cast<bool>(st_); }
  bool done() const noexcept { return st_ && st_->done; }

  /// Nonblocking completion probe (MPI_Test without the status). Throws
  /// std::invalid_argument on an invalid (default-constructed) request.
  bool test() const {
    if (!valid()) throw std::invalid_argument("Request::test: invalid request");
    return st_->done;
  }

  /// Run `fn` when the operation completes (immediately if it already
  /// did). This is the dataflow hook: a graph task depending on this
  /// recv/send registers an external-dependency release here instead of
  /// blocking a coroutine in wait(). Callbacks run in registration order
  /// at the completion's virtual time.
  void on_done(std::function<void()> fn) {
    if (!valid()) {
      throw std::invalid_argument("Request::on_done: invalid request");
    }
    if (st_->done) {
      fn();
      return;
    }
    st_->callbacks.push_back(std::move(fn));
  }

 private:
  friend class Comm;
  struct State {
    explicit State(sim::Engine& eng) : cv(eng) {}
    sim::Condition cv;
    bool done = false;
    std::vector<std::function<void()>> callbacks;
  };
  std::shared_ptr<State> st_;
};

class Comm {
 public:
  int size() const noexcept { return static_cast<int>(granks_.size()); }
  int ctx() const noexcept { return ctx_; }

  int to_global(int r) const { return granks_.at(static_cast<std::size_t>(r)); }
  /// Comm-local rank of a global rank, or -1 if not a member.
  int from_global(int g) const;

  // ---- Topology (comm-local rank arguments) ----
  int node_of(int r) const;
  int node_local_rank(int r) const;

  // ---- Point-to-point (comm-local ranks) ----
  sim::Task<void> send(int my, int dst, int tag, hw::BufView data);
  sim::Task<void> recv(int my, int src, int tag, hw::BufView out);
  Request isend(int my, int dst, int tag, hw::BufView data);
  Request irecv(int my, int src, int tag, hw::BufView out);
  /// Concurrent send+recv (the ring-step workhorse).
  sim::Task<void> sendrecv(int my, int dst, int stag, hw::BufView sdata,
                           int src, int rtag, hw::BufView rout);

  sim::Task<void> wait(Request r);
  sim::Task<void> wait_all(std::vector<Request> rs);

  /// Synchronization barrier for harness/phase alignment. Costless in
  /// virtual time (rank coroutines align at max arrival time); the
  /// message-based dissemination barrier lives in coll/barrier.hpp.
  sim::Task<void> barrier(int my);

  /// Per-rank operation sequence number; SPMD-consistent, used to key
  /// node-shared objects for collective invocations.
  std::uint64_t next_op_seq(int my) {
    return op_seq_.at(static_cast<std::size_t>(my))++;
  }

  // ---- Environment access ----
  World& world() const noexcept { return *world_; }
  hw::Cluster& cluster() const noexcept;
  net::Net& net() const noexcept;
  shm::NodeShare& share() const noexcept;
  sim::Engine& engine() const noexcept;
  /// The world's observability channel (never null; defaults to the null
  /// sink). All collective instrumentation flows through this.
  obs::Sink& sink() const noexcept;

 private:
  friend class World;
  Comm(World& world, int ctx, std::vector<int> granks);

  static sim::Task<void> run_and_signal(sim::Task<void> op,
                                        std::shared_ptr<Request::State> st);

  int wire_tag(int tag) const;

  World* world_;
  int ctx_;
  std::vector<int> granks_;           // comm-local -> global
  std::vector<int> from_global_;      // global -> comm-local (-1)
  std::vector<std::uint64_t> op_seq_; // per comm-local rank
  std::unique_ptr<sim::Barrier> barrier_;
};

/// Owns the simulated machine and the communicator registry.
class World {
 public:
  /// All instrumentation (spans, metrics, timeline samples) flows into
  /// `sink`, which must outlive the World. Defaults to the null sink;
  /// tracer-based tools pass an obs::CollectSink over their tracer.
  World(sim::Engine& eng, hw::ClusterSpec spec,
        obs::Sink& sink = obs::null_sink());
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  hw::Cluster& cluster() noexcept { return cluster_; }
  net::Net& net() noexcept { return net_; }
  shm::NodeShare& share() noexcept { return share_; }
  sim::Engine& engine() noexcept { return *eng_; }
  obs::Sink& sink() noexcept { return *sink_; }

  Comm& comm_world() noexcept { return *comms_.front(); }

  /// Create a sub-communicator from global ranks (kept alive by the World).
  Comm& create_comm(std::vector<int> global_ranks);

  /// Convenience: the node-local communicator for `node` and the leader
  /// communicator (local rank 0 of every node). Created on demand, cached.
  Comm& node_comm(int node);
  Comm& leader_comm();

  /// Leaders of `groups` process groups per node (multi-leader designs):
  /// local ranks {0, ppn/groups, 2*ppn/groups, ...} of every node, ordered
  /// node-major then group-major. Created on demand, cached per `groups`.
  Comm& group_leader_comm(int groups);

  /// A contiguous span of node-local ranks [first_local, first_local +
  /// count) of one node — the level-wise splitting primitive of the
  /// n-level hierarchy builder (core/hierarchy.hpp): every hierarchy group
  /// below the node level is such a span. Created on demand, cached per
  /// (node, first, count).
  Comm& span_comm(int node, int first_local, int count);

 private:
  sim::Engine* eng_;
  hw::Cluster cluster_;
  obs::Sink* sink_;
  net::Net net_;
  shm::NodeShare share_;
  std::deque<std::unique_ptr<Comm>> comms_;
  std::vector<Comm*> node_comms_;
  Comm* leader_comm_ = nullptr;
  std::map<int, Comm*> group_leader_comms_;
  std::map<std::tuple<int, int, int>, Comm*> span_comms_;
  int next_ctx_ = 0;
};

}  // namespace hmca::mpi
