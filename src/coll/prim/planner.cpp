#include "coll/prim/planner.hpp"

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coll/graph.hpp"
#include "shm/shm.hpp"

namespace hmca::coll::prim {
namespace {

// ---- Task bodies (free coroutines: arguments are copied into the frame
// at invocation, so the build-time lambdas can capture by value) ----

sim::Task<void> copy_chunk(mpi::Comm& comm, int grank, hw::BufView dst,
                           hw::BufView src) {
  co_await comm.cluster().cpu_copy_by(grank, static_cast<double>(src.len));
  hw::copy_payload(dst, src);
}

sim::Task<void> reduce_chunk(mpi::Comm& comm, int grank, hw::BufView accum,
                             hw::BufView operand, std::size_t count,
                             mpi::Dtype dtype, mpi::ReduceOp op) {
  co_await comm.cluster().cpu_reduce_by(grank,
                                        static_cast<double>(accum.len));
  mpi::apply_reduce(op, dtype, accum, operand, count);
}

/// Posts every chunk irecv of one inbound transfer and wires each
/// completion to its stub task. Runs as a graph task so the posts wait for
/// every earlier reader/writer of the destination range. Chunk boundaries
/// are element-aligned (`elem` = dtype size, 1 for raw bytes) so they land
/// exactly where the matching sends split.
sim::Task<void> post_recvs(mpi::Comm& comm, int my, int src, int base_tag,
                           int chunks, hw::BufView dst, std::size_t elem,
                           GraphExecutor& exec, std::vector<int> stubs) {
  const std::size_t count = dst.len / elem;
  for (int c = 0; c < chunks; ++c) {
    const auto [eoff, ecnt] = chunk_range(count, chunks, c);
    if (ecnt == 0) continue;
    const int stub = stubs[static_cast<std::size_t>(c)];
    comm.irecv(my, src, base_tag + c, dst.sub(eoff * elem, ecnt * elem))
        .on_done([&exec, stub] { exec.satisfy(stub); });
  }
  co_return;
}

/// One transfer set of a program: a multicast, one owner's shard of an
/// unshard, or a reduce — or a fence, which every rank lowers.
struct Unit {
  const Prim* prim = nullptr;  ///< label, phase, peers, reduce dtype/op
  int root = 0;
  Space src_space = Space::kRecv;
  Space dst_space = Space::kRecv;
  Range src;
  std::size_t dst_off = 0;
  int chunks = 0;              ///< chunks_for(src.len)
  std::size_t tags = 0;        ///< Plan::tags index of peer 0's tag base
};

/// The rank-independent half of a planner call, built once by the first
/// rank to arrive and shared by all: the validated program, its transfer
/// units with every wire tag numbered in program order, and each rank's
/// units. A rank lowers only `by_rank[my]`.
struct Plan {
  Program prog;
  std::vector<Unit> units;
  std::vector<int> tags;  ///< per (unit, peer) tag base; -1 = local copy
  std::vector<std::vector<int>> by_rank;
};

std::shared_ptr<Plan> make_plan(Program prog) {
  prog.validate();
  auto plan = std::make_shared<Plan>();
  plan->prog = std::move(prog);
  plan->by_rank.resize(static_cast<std::size_t>(plan->prog.nranks));
  auto& tags = plan->tags;

  const auto add_unit = [&plan](Unit u) {
    plan->units.push_back(u);
    return static_cast<int>(plan->units.size()) - 1;
  };
  const auto join = [&plan](int rank, int id) {
    plan->by_rank[static_cast<std::size_t>(rank)].push_back(id);
  };
  // Per-ordered-pair wire-tag sequence, advanced in program order: both
  // ends of a transfer read the same base.
  std::map<std::pair<int, int>, int> pair_seq;
  const auto next_tag = [&pair_seq](int src, int dst, int chunks) {
    int& next = pair_seq[{src, dst}];
    const int base = next;
    if (base + chunks - 1 > mpi::kMaxUserTag) {
      throw PlanError("tag budget exceeded between ranks " +
                      std::to_string(src) + " and " + std::to_string(dst) +
                      " (program moves too many transfers over one pair)");
    }
    next += chunks;
    return base;
  };
  const auto multicast = [&](const Prim& p, int root, Space src_space,
                             Range src, Space dst_space, std::size_t dst_off) {
    if (src.len == 0) return;
    const int chunks = chunks_for(src.len);
    const int id = add_unit(
        {&p, root, src_space, dst_space, src, dst_off, chunks, tags.size()});
    join(root, id);
    for (const int peer : p.peers) {
      if (peer == root) {
        tags.push_back(-1);
        continue;
      }
      tags.push_back(next_tag(root, peer, chunks));
      join(peer, id);
    }
  };

  const std::vector<Shard>* sharded[3] = {nullptr, nullptr, nullptr};
  for (const Prim& p : plan->prog.prims) {
    switch (p.op) {
      case Op::kMulticast:
        multicast(p, p.root, p.src_space, p.src, p.dst_space, p.dst_off);
        break;
      case Op::kReduce: {
        if (p.src.len == 0) break;
        const int chunks = chunks_for(p.src.len);
        const int id = add_unit({&p, p.root, p.src_space, p.src_space, p.src,
                                 p.src.off, chunks, tags.size()});
        join(p.root, id);
        for (const int peer : p.peers) {
          tags.push_back(next_tag(peer, p.root, chunks));
          join(peer, id);
        }
        break;
      }
      case Op::kShard:
        sharded[static_cast<int>(p.src_space)] = &p.shards;
        break;
      case Op::kUnshard:
        for (const Shard& s : *sharded[static_cast<int>(p.src_space)]) {
          multicast(p, s.owner, p.src_space, s.range, p.src_space,
                    s.range.off);
        }
        break;
      case Op::kFence: {
        Unit fence;
        fence.prim = &p;
        const int id = add_unit(fence);
        for (auto& units : plan->by_rank) units.push_back(id);
        break;
      }
    }
  }
  return plan;
}

/// Per-space dependency bookkeeping: producers for RAW/WAW, readers for
/// WAR. Entries only accumulate (extra edges to already-finished tasks are
/// harmless); fences clear both.
struct SpaceState {
  RangeProducers producers;
  struct Reader {
    std::size_t lo, hi;
    int task;
  };
  std::vector<Reader> readers;

  void clear() {
    producers = RangeProducers{};
    readers.clear();
  }
};

class Lowering {
 public:
  Lowering(mpi::Comm& comm, int my, hw::BufView send, hw::BufView recv,
           const Plan& plan, GraphExecutor& exec, TaskGraph& g,
           std::deque<hw::Buffer>& temps, std::optional<hw::Buffer>& scratch)
      : comm_(comm),
        my_(my),
        grank_(comm.to_global(my)),
        send_(send),
        recv_(recv),
        plan_(plan),
        exec_(exec),
        g_(g),
        temps_(temps),
        scratch_(scratch),
        carry_(send.real() || recv.real()) {}

  /// Walks this rank's units only, in program order.
  void lower() {
    for (const int id : plan_.by_rank[static_cast<std::size_t>(my_)]) {
      const Unit& u = plan_.units[static_cast<std::size_t>(id)];
      const Prim& p = *u.prim;
      phase_ = p.phase;
      label_ = p.label.empty() ? op_name(p.op) : p.label;
      switch (p.op) {
        case Op::kReduce:
          lower_reduce(u);
          break;
        case Op::kFence:
          lower_fence();
          break;
        default:  // a multicast or one shard of an unshard
          lower_multicast(u);
          break;
      }
    }
  }

 private:
  hw::BufView view(Space s) {
    switch (s) {
      case Space::kSend: return send_;
      case Space::kRecv: return recv_;
      case Space::kScratch:
        if (!scratch_) {
          scratch_ = hw::Buffer::make(plan_.prog.scratch_bytes, carry_);
        }
        return scratch_->view();
    }
    return {};
  }

  SpaceState& state(Space s) { return spaces_[static_cast<int>(s)]; }

  int add(TaskKind kind, Lane lane, TaskGraph::Body body, TaskOpts opts) {
    if (opts.phase.empty()) opts.phase = phase_;
    const int t = g_.add(kind, lane, std::move(body), std::move(opts));
    if (fence_task_ >= 0) g_.depend(t, fence_task_);
    since_fence_.push_back(t);
    return t;
  }

  /// Reader edges: `task` consumes [off, off+len) of `s`.
  void read_deps(Space s, std::size_t off, std::size_t len, int task) {
    auto& st = state(s);
    for (const int p : st.producers.covering(off, len)) g_.depend(task, p);
    st.readers.push_back({off, off + len, task});
  }

  /// Writer edges: `task` overwrites [off, off+len) of `s` — it must wait
  /// for earlier producers (WAW) and earlier readers (WAR) of the range.
  void write_deps(Space s, std::size_t off, std::size_t len, int task) {
    auto& st = state(s);
    for (const int p : st.producers.covering(off, len)) g_.depend(task, p);
    for (const auto& r : st.readers) {
      if (r.lo < off + len && off < r.hi && r.task != task) {
        g_.depend(task, r.task);
      }
    }
  }

  void note_produced(Space s, std::size_t off, std::size_t len, int task) {
    state(s).producers.add(off, len, task);
  }

  void lower_multicast(const Unit& u) {
    const int root = u.root;
    const Space src_space = u.src_space;
    const Space dst_space = u.dst_space;
    const Range src = u.src;
    const std::size_t dst_off = u.dst_off;
    const std::size_t len = src.len;
    const int chunks = u.chunks;
    const std::vector<int>& peers = u.prim->peers;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const int peer = peers[i];
      if (peer == root) {
        if (src_space == dst_space && src.off == dst_off) continue;
        if (my_ != root) continue;
        for (int c = 0; c < chunks; ++c) {
          const auto [coff, clen] = chunk_range(len, chunks, c);
          const hw::BufView s = view(src_space).sub(src.off + coff, clen);
          const hw::BufView d = view(dst_space).sub(dst_off + coff, clen);
          const int t = add(
              TaskKind::kCopy, Lane::kCpu,
              [&comm = comm_, grank = grank_, d, s] {
                return copy_chunk(comm, grank, d, s);
              },
              TaskOpts{label_, "", chunks > 1 ? c : -1, clen, -1});
          read_deps(src_space, src.off + coff, clen, t);
          write_deps(dst_space, dst_off + coff, clen, t);
          note_produced(dst_space, dst_off + coff, clen, t);
        }
        continue;
      }
      const int base = plan_.tags[u.tags + i];
      if (my_ == root) {
        const int peer_g = comm_.to_global(peer);
        for (int c = 0; c < chunks; ++c) {
          const auto [coff, clen] = chunk_range(len, chunks, c);
          const hw::BufView s = view(src_space).sub(src.off + coff, clen);
          const int tag = base + c;
          const int t = add(
              TaskKind::kSend, Lane::kNone,
              [&comm = comm_, my = my_, peer, tag, s] {
                return comm.send(my, peer, tag, s);
              },
              TaskOpts{label_, "", chunks > 1 ? c : -1, clen, peer_g});
          read_deps(src_space, src.off + coff, clen, t);
        }
      } else if (my_ == peer) {
        add_recv(root, base, chunks, dst_space, dst_off, len);
      }
    }
  }

  /// Deferred inbound transfer into [dst_off, dst_off+len) of `dst_space`
  /// (or, when `staging` is set, into that private buffer): per-chunk stub
  /// tasks anchor the completions, and a post task — carrying the WAR/WAW
  /// edges of the destination range — posts the irecvs once the range is
  /// safe to overwrite. The stubs cannot be satisfied before the post body
  /// runs, so no stub->post edge is needed; the post's write edges are
  /// wired *before* the stubs become producers of the range (depending on
  /// a stub it is about to feed would be a cycle). Chunk boundaries are
  /// `elem`-aligned to match the sender's split. Returns the stub ids.
  std::vector<int> add_recv(int src, int base, int chunks, Space dst_space,
                            std::size_t dst_off, std::size_t len,
                            hw::BufView staging = {}, std::size_t elem = 1) {
    const bool user = staging.len == 0;
    const hw::BufView dst = user ? view(dst_space).sub(dst_off, len) : staging;
    const int src_g = comm_.to_global(src);
    const std::size_t count = len / elem;
    std::vector<int> stubs(static_cast<std::size_t>(chunks), -1);
    for (int c = 0; c < chunks; ++c) {
      const auto [eoff, ecnt] = chunk_range(count, chunks, c);
      const std::size_t clen = ecnt * elem;
      const int t =
          add(TaskKind::kRecv, Lane::kNone, [] { return noop_task(); },
              TaskOpts{label_, "", chunks > 1 ? c : -1, clen, src_g});
      if (clen > 0) g_.depend_external(t);
      stubs[static_cast<std::size_t>(c)] = t;
    }
    const int post = add(
        TaskKind::kRecv, Lane::kNone,
        [&comm = comm_, &exec = exec_, my = my_, src, base, chunks, dst, elem,
         stubs] { return post_recvs(comm, my, src, base, chunks, dst, elem,
                                    exec, stubs); },
        TaskOpts{label_ + ":post", "", -1, 0, src_g});
    if (user) {
      write_deps(dst_space, dst_off, len, post);
      for (int c = 0; c < chunks; ++c) {
        const auto [eoff, ecnt] = chunk_range(count, chunks, c);
        if (ecnt > 0) {
          note_produced(dst_space, dst_off + eoff * elem, ecnt * elem,
                        stubs[static_cast<std::size_t>(c)]);
        }
      }
    }
    return stubs;
  }

  void lower_reduce(const Unit& u) {
    const Prim& p = *u.prim;
    const std::size_t len = p.src.len;
    const Space space = p.src_space;
    const std::size_t elem = mpi::dtype_size(p.dtype);
    const std::size_t count = len / elem;
    const int chunks = u.chunks;
    std::map<int, int> chain;  ///< per-chunk reduce-chain tail

    for (std::size_t i = 0; i < p.peers.size(); ++i) {
      const int peer = p.peers[i];
      const int base = plan_.tags[u.tags + i];
      if (my_ == peer) {
        const int root_g = comm_.to_global(p.root);
        for (int c = 0; c < chunks; ++c) {
          const auto [eoff, ecnt] = chunk_range(count, chunks, c);
          if (ecnt == 0) continue;
          const std::size_t coff = eoff * elem;
          const std::size_t clen = ecnt * elem;
          const hw::BufView s = view(space).sub(p.src.off + coff, clen);
          const int root = p.root;
          const int tag = base + c;
          const int t = add(
              TaskKind::kSend, Lane::kNone,
              [&comm = comm_, my = my_, root, tag, s] {
                return comm.send(my, root, tag, s);
              },
              TaskOpts{label_, "", chunks > 1 ? c : -1, clen, root_g});
          read_deps(space, p.src.off + coff, clen, t);
        }
      }
      if (my_ != p.root) continue;

      // Root side: stage this peer's contribution privately, then chain
      // per-chunk reduces in declared peer order (accumulator exclusivity
      // per chunk; chunks combine in parallel).
      temps_.push_back(hw::Buffer::make(len, carry_));
      const hw::BufView tempv = temps_.back().view();
      const auto stubs =
          add_recv(peer, base, chunks, space, p.src.off, len, tempv, elem);
      for (int c = 0; c < chunks; ++c) {
        const auto [eoff, ecnt] = chunk_range(count, chunks, c);
        if (ecnt == 0) continue;
        const std::size_t coff = eoff * elem;
        const std::size_t clen = ecnt * elem;
        const hw::BufView accum = view(space).sub(p.src.off + coff, clen);
        const hw::BufView operand = tempv.sub(coff, clen);
        const mpi::Dtype dtype = p.dtype;
        const mpi::ReduceOp rop = p.rop;
        const int t = add(
            TaskKind::kReduce, Lane::kCpu,
            [&comm = comm_, grank = grank_, accum, operand, ecnt, dtype,
             rop] {
              return reduce_chunk(comm, grank, accum, operand, ecnt, dtype,
                                  rop);
            },
            TaskOpts{label_, "", chunks > 1 ? c : -1, clen,
                     comm_.to_global(peer)});
        g_.depend(t, stubs[static_cast<std::size_t>(c)]);
        auto it = chain.find(c);
        if (it != chain.end()) {
          g_.depend(t, it->second);
        } else {
          read_deps(space, p.src.off + coff, clen, t);
          write_deps(space, p.src.off + coff, clen, t);
        }
        chain[c] = t;
      }
    }
    for (const auto& [c, tail] : chain) {
      const auto [eoff, ecnt] = chunk_range(count, chunks, c);
      note_produced(space, p.src.off + eoff * elem, ecnt * elem, tail);
    }
  }

  void lower_fence() {
    for (auto& st : spaces_) st.clear();
    if (since_fence_.empty()) return;
    const int m =
        g_.add(TaskKind::kCopy, Lane::kNone, [] { return noop_task(); },
               TaskOpts{"fence", phase_, -1, 0, -1});
    for (const int t : since_fence_) g_.depend(m, t);
    since_fence_.clear();
    since_fence_.push_back(m);
    fence_task_ = m;
  }

  mpi::Comm& comm_;
  const int my_;
  const int grank_;
  const hw::BufView send_;
  const hw::BufView recv_;
  const Plan& plan_;
  GraphExecutor& exec_;
  TaskGraph& g_;
  std::deque<hw::Buffer>& temps_;
  std::optional<hw::Buffer>& scratch_;
  const bool carry_;

  SpaceState spaces_[3];
  std::vector<int> since_fence_;
  int fence_task_ = -1;
  std::string phase_;
  std::string label_;
};

}  // namespace

sim::Task<void> Planner::run(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv,
                             std::function<Program()> build) {
  GraphExecutor exec(comm.engine(), comm.sink(), comm.to_global(my));
  TaskGraph g;
  std::deque<hw::Buffer> temps;
  std::optional<hw::Buffer> scratch;
  {
    // The task bodies copy what they need, so the plan is released as soon
    // as this rank's share is lowered.
    const auto plan = comm.share().acquire<Plan>(
        -1, shm::op_key(comm.ctx(), comm.next_op_seq(my)), comm.size(),
        [&build] { return make_plan(build()); });
    Lowering lo(comm, my, send, recv, *plan, exec, g, temps, scratch);
    lo.lower();
  }
  if (g.empty()) co_return;
  co_await exec.run(g);
}

}  // namespace hmca::coll::prim
