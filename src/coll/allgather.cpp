#include "coll/allgather.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/graph.hpp"
#include "coll/phase_span.hpp"
#include "obs/names.hpp"
#include "shm/shm.hpp"

namespace hmca::coll {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

int log2_floor(int n) {
  int k = 0;
  while ((1 << (k + 1)) <= n) ++k;
  return k;
}

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
                const hw::BufView& recv, std::size_t msg, bool in_place) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("allgather: bad rank");
  }
  if (recv.len != msg * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("allgather: recv size != msg * comm size");
  }
  if (!in_place && send.len != msg) {
    throw std::invalid_argument("allgather: send size != msg");
  }
}

// Member-side drain of publication slot `i`: the chunk's offset/len are
// only known at publish time, so the body reads them when released.
sim::Task<void> copy_out_published(std::shared_ptr<shm::ShmRegion> region,
                                   int grank, std::size_t i,
                                   hw::BufView recv) {
  const auto c = region->chunk(i);
  if (c.len > 0) {
    co_await region->copy_out(grank, i, recv.sub(c.offset, c.len));
  }
}

// Leader-side publish of one landed chunk; an empty chunk publishes a
// zero-length marker (no copy startup) to keep member slot indices aligned.
sim::Task<void> publish_chunk(std::shared_ptr<shm::ShmRegion> region,
                              int grank, hw::BufView src, std::size_t off) {
  if (src.len == 0) {
    region->publish(off, 0);
    co_return;
  }
  co_await region->copy_in_publish(grank, src, off);
}

// Per-block chunk counts of a ring over `blocks` and its tag stride. The
// counts derive from the layout alone, so the sender and receiver of every
// hop and the members draining the publishes agree on them.
struct RingChunks {
  std::vector<int> chunks;
  int stride = kChunkTagStride;
};

RingChunks ring_chunks(const VarLayout& blocks) {
  const int n = static_cast<int>(blocks.counts.size());
  RingChunks rc;
  rc.chunks.reserve(blocks.counts.size());
  int most = 1;
  for (std::size_t b = 0; b < blocks.counts.size(); ++b) {
    // Equal neighbours (the common case) reuse the previous count instead
    // of re-reading the chunk-size configuration.
    const bool same = b > 0 && blocks.counts[b] == blocks.counts[b - 1];
    rc.chunks.push_back(same ? rc.chunks.back()
                             : chunks_for(blocks.counts[b]));
    most = std::max(most, rc.chunks.back());
  }
  if (static_cast<long long>(n - 2) * kChunkTagStride + most - 1 >
      mpi::kMaxUserTag) {
    rc.chunks.assign(blocks.counts.size(), 1);
    rc.stride = 1;
  }
  return rc;
}

// One CPU copy of the caller's contribution into its recv block.
sim::Task<void> copy_own_block(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView own) {
  co_await comm.cluster().cpu_copy_by(comm.to_global(my),
                                      static_cast<double>(own.len));
  hw::copy_payload(own, send);
}

// The leader's publish of the chunk `t_recv` landed at recv[off, off+len),
// when `opts` asks for one.
void add_publish(TaskGraph& g, const ExchangeOpts& opts, int rank,
                 hw::BufView recv, std::size_t off, std::size_t len,
                 const std::string& step, int c, int t_recv) {
  if (opts.region == nullptr) return;
  const int t = g.add(
      TaskKind::kShmIn, Lane::kShm,
      [region = opts.region, rank, recv, off, len] {
        return publish_chunk(region, rank, recv.sub(off, len), off);
      },
      TaskOpts{"p3 pub" + step, opts.phase, c, len, -1});
  g.depend(t, t_recv);
}

}  // namespace

sim::Task<void> seed_own_block(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, std::size_t msg,
                               bool in_place) {
  if (in_place || msg == 0) co_return;
  co_await copy_own_block(
      comm, my, send, recv.sub(static_cast<std::size_t>(my) * msg, msg));
}

int add_seed_task(TaskGraph& g, mpi::Comm& comm, int my, hw::BufView send,
                  hw::BufView own, bool in_place, const std::string& phase) {
  if (in_place || own.len == 0) return -1;
  return g.add(
      TaskKind::kCopy, Lane::kCpu,
      [&comm, my, send, own] { return copy_own_block(comm, my, send, own); },
      TaskOpts{"seed", phase, -1, own.len, -1});
}

int add_recv_stub(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm, int my,
                  int src, int tag, hw::BufView dst, TaskOpts opts) {
  const int t = g.add(
      TaskKind::kRecv, Lane::kNone, [] { return noop_task(); },
      std::move(opts));
  g.depend_external(t);
  comm.irecv(my, src, tag, dst).on_done([&exec, t] { exec.satisfy(t); });
  return t;
}

void build_ring_exchange(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm,
                         int my, hw::BufView recv, const VarLayout& blocks,
                         const RangeProducers& first, int first_fallback,
                         const ExchangeOpts& opts) {
  const int n = comm.size();
  const int right = (my + 1) % n;
  const int left = (my - 1 + n) % n;
  const int right_g = comm.to_global(right);
  const int left_g = comm.to_global(left);
  const RingChunks rc = ring_chunks(blocks);

  // Recv stubs of the block that landed last step — the one sent next.
  std::vector<int> landed;
  std::vector<int> landing;
  for (int s = 0; s < n - 1; ++s) {
    const int out_b = (my - s + n) % n;
    const int in_b = (my - s - 1 + 2 * n) % n;
    const int out_chunks = rc.chunks[static_cast<std::size_t>(out_b)];
    const int in_chunks = rc.chunks[static_cast<std::size_t>(in_b)];
    const std::string step = " s" + std::to_string(s);
    landing.clear();
    for (int c = 0; c < std::max(out_chunks, in_chunks); ++c) {
      const int tag = s * rc.stride + c;
      if (c < out_chunks) {
        const auto [coff, clen] =
            chunk_range(blocks.count(out_b), out_chunks, c);
        const std::size_t off = blocks.offset(out_b) + coff;
        const int t_send = g.add(
            TaskKind::kSend, Lane::kNone,
            [&comm, my, right, tag, recv, off, clen] {
              return comm.send(my, right, tag, recv.sub(off, clen));
            },
            TaskOpts{opts.prefix + "send" + step, opts.phase, c, clen,
                     right_g});
        if (s > 0) {
          g.depend(t_send, landed[static_cast<std::size_t>(c)]);
        } else {
          const auto producers = first.covering(off, clen);
          for (const int p : producers) g.depend(t_send, p);
          if (producers.empty() && first_fallback >= 0) {
            g.depend(t_send, first_fallback);
          }
        }
      }
      if (c < in_chunks) {
        const auto [coff, clen] = chunk_range(blocks.count(in_b), in_chunks, c);
        const std::size_t off = blocks.offset(in_b) + coff;
        landing.push_back(add_recv_stub(
            g, exec, comm, my, left, tag, recv.sub(off, clen),
            TaskOpts{opts.prefix + "recv" + step, opts.phase, c, clen,
                     left_g}));
        add_publish(g, opts, comm.to_global(my), recv, off, clen, step, c,
                    landing.back());
      }
    }
    landed.swap(landing);
  }
}

void build_rd_exchange(TaskGraph& g, GraphExecutor& exec, mpi::Comm& comm,
                       int my, hw::BufView recv, std::size_t block,
                       RangeProducers& prod, const ExchangeOpts& opts) {
  // log2(N) <= 31 steps keeps the strided tags in range.
  const int n = comm.size();
  for (int k = 0; (1 << k) < n; ++k) {
    const int dist = 1 << k;
    const int partner = my ^ dist;
    const int partner_g = comm.to_global(partner);
    const std::size_t own_base =
        static_cast<std::size_t>(my & ~(dist - 1)) * block;
    const std::size_t partner_base =
        static_cast<std::size_t>(partner & ~(dist - 1)) * block;
    const std::size_t len = static_cast<std::size_t>(dist) * block;
    const int chunks = chunks_for(len);
    const std::string step = " k" + std::to_string(k);
    for (int c = 0; c < chunks; ++c) {
      const auto [coff, clen] = chunk_range(len, chunks, c);
      const int tag = k * kChunkTagStride + c;
      const std::size_t out_off = own_base + coff;
      const std::size_t in_off = partner_base + coff;

      const int t_send = g.add(
          TaskKind::kSend, Lane::kNone,
          [&comm, my, partner, tag, recv, out_off, clen] {
            return comm.send(my, partner, tag, recv.sub(out_off, clen));
          },
          TaskOpts{opts.prefix + "send" + step, opts.phase, c, clen,
                   partner_g});
      for (const int p : prod.covering(out_off, clen)) g.depend(t_send, p);

      const int t_recv = add_recv_stub(
          g, exec, comm, my, partner, tag, recv.sub(in_off, clen),
          TaskOpts{opts.prefix + "recv" + step, opts.phase, c, clen,
                   partner_g});
      prod.add(in_off, clen, t_recv);
      add_publish(g, opts, comm.to_global(my), recv, in_off, clen, step, c,
                  t_recv);
    }
  }
}

int ring_exchange_publishes(const VarLayout& blocks, int own) {
  const RingChunks rc = ring_chunks(blocks);
  return std::accumulate(rc.chunks.begin(), rc.chunks.end(), 0) -
         rc.chunks[static_cast<std::size_t>(own)];
}

int rd_exchange_publishes(int n, std::size_t block) {
  int slots = 0;
  for (int k = 0; (1 << k) < n; ++k) {
    slots += chunks_for(static_cast<std::size_t>(1 << k) * block);
  }
  return slots;
}

void build_publish_drain(TaskGraph& g, GraphExecutor& exec,
                         std::shared_ptr<shm::ShmRegion> region, int rank,
                         hw::BufView recv, int slots, const std::string& label) {
  std::vector<int> outs;
  outs.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    const int t = g.add(
        TaskKind::kShmOut, Lane::kShm,
        [region, rank, i, recv] {
          return copy_out_published(region, rank,
                                    static_cast<std::size_t>(i), recv);
        },
        TaskOpts{label, obs::names::kPhase3, i, 0, -1});
    g.depend_external(t);
    outs.push_back(t);
  }
  region->add_publish_listener(
      [&exec, outs = std::move(outs)](std::size_t idx) {
        if (idx < outs.size()) exec.satisfy(outs[idx]);
      });
}

sim::Task<void> allgather_ring(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv, std::size_t msg,
                               bool in_place) {
  check_args(comm, my, send, recv, msg, in_place);
  const auto layout = VarLayout::uniform(comm.size(), msg);
  co_await allgatherv_ring(comm, my, send, recv, layout, in_place);
}

sim::Task<void> allgather_rd(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv, std::size_t msg,
                             bool in_place) {
  check_args(comm, my, send, recv, msg, in_place);
  const int n = comm.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(
        "allgather_rd: communicator size must be a power of two "
        "(use allgather_rd_or_bruck)");
  }
  if (n == 1) {
    co_await seed_own_block(comm, my, send, recv, msg, in_place);
    co_return;
  }

  GraphExecutor exec(comm.engine(), comm.sink(), comm.to_global(my));
  TaskGraph g;
  RangeProducers prod;
  const std::size_t own_off = static_cast<std::size_t>(my) * msg;
  const int seed = add_seed_task(g, comm, my, send, recv.sub(own_off, msg),
                                 in_place, obs::names::kPhaseExchange);
  if (seed >= 0) prod.add(own_off, msg, seed);
  build_rd_exchange(g, exec, comm, my, recv, msg, prod, ExchangeOpts{});
  co_await exec.run(g);
}

sim::Task<void> allgather_bruck(mpi::Comm& comm, int my, hw::BufView send,
                                hw::BufView recv, std::size_t msg,
                                bool in_place) {
  check_args(comm, my, send, recv, msg, in_place);
  // Store-and-forward: every step forwards the full accumulated prefix, so
  // there is no chunk-level parallelism to expose; one coroutine suffices.
  PhaseSpan phase(comm, my);
  const int n = comm.size();
  auto& cl = comm.cluster();

  // Rotated working buffer: temp[i] holds the block of rank (my + i) % n.
  auto temp =
      hw::Buffer::make(static_cast<std::size_t>(n) * msg, cl.spec().carry_data);
  co_await cl.cpu_copy_by(comm.to_global(my), static_cast<double>(msg));
  hw::copy_payload(
      temp.slice(0, msg),
      in_place ? recv.sub(static_cast<std::size_t>(my) * msg, msg) : send);

  for (int pof = 1, step = 0; pof < n; pof *= 2, ++step) {
    const int send_count = std::min(pof, n - pof);
    const std::size_t len = static_cast<std::size_t>(send_count) * msg;
    const int to = (my - pof % n + n) % n;
    const int from = (my + pof) % n;
    co_await comm.sendrecv(my, to, step, temp.slice(0, len), from, step,
                           temp.slice(static_cast<std::size_t>(pof) * msg, len));
  }

  // Un-rotate: recv[(my + i) % n] = temp[i]; one local pass over the buffer.
  co_await cl.cpu_copy_by(comm.to_global(my),
                          static_cast<double>(n) * static_cast<double>(msg));
  if (recv.real() && temp.has_data()) {
    for (int i = 0; i < n; ++i) {
      const int slot = (my + i) % n;
      hw::copy_payload(recv.sub(static_cast<std::size_t>(slot) * msg, msg),
                       temp.slice(static_cast<std::size_t>(i) * msg, msg));
    }
  }
}

sim::Task<void> allgather_direct(mpi::Comm& comm, int my, hw::BufView send,
                                 hw::BufView recv, std::size_t msg,
                                 bool in_place) {
  check_args(comm, my, send, recv, msg, in_place);
  const auto layout = VarLayout::uniform(comm.size(), msg);
  co_await allgatherv_direct(comm, my, send, recv, layout, in_place);
}

sim::Task<void> allgather_rd_or_bruck(mpi::Comm& comm, int my,
                                      hw::BufView send, hw::BufView recv,
                                      std::size_t msg, bool in_place) {
  if (is_power_of_two(comm.size())) {
    co_await allgather_rd(comm, my, send, recv, msg, in_place);
  } else {
    co_await allgather_bruck(comm, my, send, recv, msg, in_place);
  }
}

sim::Task<void> allgather_multi_leader(mpi::Comm& comm, int my,
                                       hw::BufView send, hw::BufView recv,
                                       std::size_t msg, bool in_place,
                                       int groups) {
  check_args(comm, my, send, recv, msg, in_place);
  auto& cl = comm.cluster();
  const int ppn = cl.ppn();

  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgather_multi_leader: world comm required");
  }
  if (groups < 1) {
    throw std::invalid_argument(
        "allgather_multi_leader: groups must be >= 1 (got " +
        std::to_string(groups) + ")");
  }
  if (ppn % groups != 0) {
    throw std::invalid_argument(
        "allgather_multi_leader: ppn (" + std::to_string(ppn) +
        ") must be divisible by groups (" + std::to_string(groups) +
        "): leader groups would be unequal");
  }
  // Strict phase ordering is inherent to the design (the leader ring needs
  // whole group blocks), so the body stays one coroutine.
  PhaseSpan phase(comm, my);
  const int gs = ppn / groups;          // group size
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const int group = local / gs;
  const int leader_local = group * gs;
  const bool is_leader = (local == leader_local);
  const std::uint64_t seq = comm.next_op_seq(my);
  obs::Sink& sink = comm.sink();

  // ---- Phase 1: members share blocks with the group leader via shm ----
  const std::size_t group_block = static_cast<std::size_t>(gs) * msg;
  auto region1 = comm.share().acquire<shm::ShmRegion>(
      node, shm::op_key(comm.ctx(), seq, group), gs, [&] {
        return std::make_shared<shm::ShmRegion>(cl, node, group_block, sink);
      });
  const std::size_t my_block_off = static_cast<std::size_t>(my) * msg;
  if (is_leader) {
    co_await seed_own_block(comm, my, send, recv, msg, in_place);
    co_await region1->wait_published(static_cast<std::size_t>(gs - 1));
    // Copy every member block from shm into the leader's recv buffer.
    for (std::size_t i = 0; i + 1 < static_cast<std::size_t>(gs); ++i) {
      const auto c = region1->chunk(i);
      // Chunk offsets are relative to the group block.
      const std::size_t dst_off =
          (static_cast<std::size_t>(node * ppn + leader_local)) * msg + c.offset;
      co_await region1->copy_out(comm.to_global(my), i,
                                 recv.sub(dst_off, c.len));
    }
  } else {
    const hw::BufView contribution =
        in_place ? recv.sub(my_block_off, msg) : send;
    co_await region1->copy_in_publish(
        comm.to_global(my), contribution,
        static_cast<std::size_t>(local - leader_local) * msg);
  }

  // ---- Phase 2: flat Ring over all group leaders (intra + inter mixed) ----
  if (is_leader) {
    auto& lcomm = comm.world().group_leader_comm(groups);
    const int lrank = node * groups + group;
    co_await allgather_ring(lcomm, lrank, hw::BufView{}, recv, group_block,
                            /*in_place=*/true);
  }

  // ---- Phase 3: node-level broadcast of the full result via shm ----
  const std::size_t total = recv.len;
  auto region3 = comm.share().acquire<shm::ShmRegion>(
      node, shm::op_key(comm.ctx(), seq, groups + 1), ppn, [&] {
        return std::make_shared<shm::ShmRegion>(cl, node, total, sink);
      });
  if (is_leader) {
    // Leaders split the broadcast: leader g publishes slice g of the result.
    const std::size_t slice = total / static_cast<std::size_t>(groups);
    const std::size_t off = static_cast<std::size_t>(group) * slice;
    const std::size_t len =
        (group == groups - 1) ? total - off : slice;  // remainder to the last
    co_await region3->copy_in_publish(comm.to_global(my), recv.sub(off, len),
                                      off);
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(groups); ++i) {
      co_await region3->wait_published(i + 1);
      const auto c = region3->chunk(i);
      co_await region3->copy_out(comm.to_global(my), i, recv.sub(c.offset, c.len));
    }
  }
}

sim::Task<void> allgather_node_aware_bruck(mpi::Comm& comm, int my,
                                           hw::BufView send, hw::BufView recv,
                                           std::size_t msg, bool in_place) {
  check_args(comm, my, send, recv, msg, in_place);
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument(
        "allgather_node_aware_bruck: world comm required");
  }
  const int ppn = cl.ppn();
  const int nodes = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);
  const std::size_t chunk = static_cast<std::size_t>(ppn) * msg;
  const hw::BufView node_slice =
      recv.sub(static_cast<std::size_t>(node) * chunk, chunk);
  const int grank = comm.to_global(my);

  GraphExecutor exec(comm.engine(), comm.sink(), grank);
  TaskGraph g;

  // ---- Phase 1: intra-node exchange (no wire traffic) ----
  const int t_p1 = g.add(
      TaskKind::kWrapped, Lane::kNone,
      [&comm, my, send, recv, node_slice, msg, in_place, ppn, node, local] {
        if (ppn > 1) {
          return allgather_rd_or_bruck(comm.world().node_comm(node), local,
                                       send, node_slice, msg, in_place);
        }
        return seed_own_block(comm, my, send, recv, msg, in_place);
      },
      TaskOpts{"intra", "phase1", -1, chunk, -1});

  if (nodes == 1) {
    co_await exec.run(g);
    co_return;
  }

  std::shared_ptr<shm::ShmRegion> region;
  if (ppn > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, shm::op_key(comm.ctx(), seq, 7), ppn, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink());
        });
  }

  // ---- Phase 2: inter-node Bruck over whole node blocks, leaders only ----
  // The store-and-forward exchange stays one macro task; the streaming win
  // comes from phase 3 draining per published block below.
  if (leader) {
    const int t_p2 = g.add(
        TaskKind::kWrapped, Lane::kNone,
        [&comm, node, recv, chunk] {
          return allgather_bruck(comm.world().leader_comm(), node,
                                 hw::BufView{}, recv, chunk,
                                 /*in_place=*/true);
        },
        TaskOpts{"bruck-inter", "phase2", -1,
                 static_cast<std::size_t>(nodes - 1) * chunk, -1});
    g.depend(t_p2, t_p1);

    // ---- Phase 3, leader side: publish each remote node block ----
    if (region != nullptr) {
      for (int o = 1; o < nodes; ++o) {
        const int other = (node + o) % nodes;
        const std::size_t off = static_cast<std::size_t>(other) * chunk;
        const int t_pub = g.add(
            TaskKind::kShmIn, Lane::kShm,
            [region, grank, recv, off, chunk] {
              return region->copy_in_publish(grank, recv.sub(off, chunk),
                                             off);
            },
            TaskOpts{"pub b" + std::to_string(other), "phase2", -1, chunk, -1});
        g.depend(t_pub, t_p2);
      }
    }
  } else {
    // ---- Phase 3, member side: drain publication slots as they land ----
    build_publish_drain(g, exec, region, grank, recv, nodes - 1, "out");
  }
  co_await exec.run(g);
}

}  // namespace hmca::coll
