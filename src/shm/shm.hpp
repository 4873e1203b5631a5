// Intra-node shared-memory machinery.
//
// `ShmRegion` models a POSIX shared-memory segment used by the hierarchical
// designs: the node leader copies arriving chunks in and *publishes* them by
// bumping a ready counter; non-leader processes wait on the counter and copy
// published chunks out (paper Sec. 3.2, Fig. 6). Publication order — not
// chunk id — drives consumption, which is what lets Phase 3 overlap
// Phase 2.
//
// `NodeShare` is the rendezvous registry through which the SPMD ranks of a
// node obtain the per-operation shared object (region, counters): the first
// arrival constructs it, the last detaches it. Node -1 keys objects shared
// by a whole communicator, such as the planner's per-call plan.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "hw/buffer.hpp"
#include "hw/cluster.hpp"
#include "obs/sink.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace hmca::shm {

class ShmRegion {
 public:
  /// A published chunk: a byte range of the region plus the range of the
  /// consumer's destination buffer it corresponds to.
  struct Chunk {
    std::size_t offset;
    std::size_t len;
  };

  /// `home_rank`: the rank whose socket the segment's pages live on
  /// (first-toucher); on NUMA nodes, copies from other sockets traverse
  /// the UPI link. -1 = socket-oblivious (single-socket nodes).
  ShmRegion(hw::Cluster& cluster, int node, std::size_t bytes,
            obs::Sink& sink = obs::null_sink(), int home_rank = -1)
      : cl_(&cluster),
        node_(node),
        sink_(&sink),
        home_rank_(home_rank),
        store_(hw::Buffer::make(bytes, cluster.spec().carry_data)),
        cv_(cluster.engine()) {}

  std::size_t size() const noexcept { return store_.size(); }
  int node() const noexcept { return node_; }
  hw::BufView view(std::size_t offset, std::size_t len) {
    return store_.slice(offset, len);
  }

  /// Leader: copy `src` into the region at `offset` (startup + one CPU
  /// copy), then publish it. Returns after publication. `src_owner` is the
  /// rank whose memory holds `src` (NUMA attribution); -1 = the region's
  /// home.
  sim::Task<void> copy_in_publish(int rank, hw::BufView src,
                                  std::size_t offset, int src_owner = -1);

  /// Leader: publish a range without copying (data already in the region).
  void publish(std::size_t offset, std::size_t len) {
    chunks_.push_back(Chunk{offset, len});
    cv_.notify_all();
    // Snapshot: a listener may add listeners (not typical, but cheap to
    // make safe) and publication index is fixed before callbacks run.
    const std::size_t idx = chunks_.size() - 1;
    for (std::size_t i = 0; i < listeners_.size(); ++i) listeners_[i](idx);
  }

  /// Member: wait until at least `count` chunks are published.
  sim::Task<void> wait_published(std::size_t count) {
    co_await cv_.wait_until([this, count] { return chunks_.size() >= count; });
  }

  /// Publication callback: `fn(idx)` runs at every publish with the new
  /// chunk's publication index (already-published chunks are replayed at
  /// registration). Consumers use this to release dataflow tasks instead
  /// of parking a coroutine in wait_published — phase 3 becomes
  /// data-driven. Each member registers its own listener; listeners must
  /// not throw.
  void add_publish_listener(std::function<void(std::size_t)> fn) {
    for (std::size_t i = 0; i < chunks_.size(); ++i) fn(i);
    listeners_.push_back(std::move(fn));
  }

  std::size_t published() const noexcept { return chunks_.size(); }
  const Chunk& chunk(std::size_t i) const { return chunks_.at(i); }

  /// Member: copy published chunk `i` out into `dst` (must match its size).
  sim::Task<void> copy_out(int rank, std::size_t i, hw::BufView dst);

 private:
  hw::Cluster* cl_;
  int node_;
  obs::Sink* sink_;
  int home_rank_ = -1;
  hw::Buffer store_;
  sim::Condition cv_;
  std::vector<Chunk> chunks_;
  std::vector<std::function<void(std::size_t)>> listeners_;
};

/// Node-share key of one collective invocation: the per-rank op sequence
/// number disambiguates invocations, the comm context id disambiguates
/// communicators, and the 4-bit salt disambiguates the shared objects of
/// one invocation.
inline std::uint64_t op_key(int ctx, std::uint64_t seq, int salt = 0) {
  return (seq << 20) | (static_cast<std::uint64_t>(ctx) << 4) |
         static_cast<std::uint64_t>(salt);
}

/// Rendezvous registry for per-operation node-shared objects.
class NodeShare {
 public:
  /// All `parties` ranks of `node` calling with the same `key` receive the
  /// same object; the first caller's `factory` constructs it. The entry is
  /// dropped from the registry after `parties` takes (the shared_ptr keeps
  /// the object alive for holders). A factory that throws inserts nothing,
  /// so the next caller runs it again. `node` -1 is comm-wide: the key
  /// then names an object every rank of one communicator shares, and
  /// `parties` is the communicator's size.
  template <class T>
  std::shared_ptr<T> acquire(int node, std::uint64_t key, int parties,
                             const std::function<std::shared_ptr<T>()>& factory) {
    const auto full_key = std::make_pair(node, key);
    auto it = entries_.find(full_key);
    if (it == entries_.end()) {
      it = entries_
               .emplace(full_key, Entry{std::static_pointer_cast<void>(factory()),
                                        parties, &typeid(T)})
               .first;
    }
    // A key collision between two operations hands one side an object of
    // the wrong type; the static cast below would silently reinterpret it.
    // Fail loudly instead — every caller derives keys through op_key
    // precisely to keep this branch dead.
    if (*it->second.type != typeid(T)) {
      throw sim::SimError(
          "NodeShare::acquire: key collision — object registered as " +
          std::string(it->second.type->name()) + " re-acquired as " +
          std::string(typeid(T).name()));
    }
    auto obj = std::static_pointer_cast<T>(it->second.obj);
    if (--it->second.remaining == 0) entries_.erase(it);
    return obj;
  }

  std::size_t pending_entries() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<void> obj;
    int remaining;
    const std::type_info* type;
  };
  std::map<std::pair<int, std::uint64_t>, Entry> entries_;
};

}  // namespace hmca::shm
