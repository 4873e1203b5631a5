#include "core/hierarchical.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "core/hier_detail.hpp"
#include "core/hierarchy.hpp"
#include "core/mha_allgatherv.hpp"
#include "core/mha_intra.hpp"
#include "shm/shm.hpp"

namespace hmca::core {

namespace {

using detail::group_end;
using detail::group_of;
using detail::KeyAlloc;
using detail::stage_groups;

// MHA-intra offload count of phase 1: a `cma` node transport turns the
// HCA offload off; every other transport keeps Eq. 1 (-1).
double offload_of(LevelTransport inner) {
  return inner == LevelTransport::kCma ? 0.0 : -1.0;
}

// Number of chunks the leader publishes in phase 3 (legacy path: one per
// ring step / RD step).
int publish_count(Phase2Algo algo, int nodes) {
  if (nodes <= 1) return 0;
  return algo == Phase2Algo::kRing ? nodes - 1 : coll::log2_floor(nodes);
}

// Phase 1 via a double-copy shared-memory gather (Mamidala-style): every
// rank copies its contribution in, waits for all, then copies the L-1 peer
// blocks out into its recv slice.
sim::Task<void> shm_gather_phase1(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView node_slice, std::size_t msg,
                                  bool in_place, int node, int local, int l,
                                  std::uint64_t seq) {
  auto region = comm.share().acquire<shm::ShmRegion>(
      node, shm::op_key(comm.ctx(), seq, 1), l, [&] {
        return std::make_shared<shm::ShmRegion>(
            comm.cluster(), node, static_cast<std::size_t>(l) * msg,
            comm.sink());
      });
  const hw::BufView contribution =
      in_place ? node_slice.sub(static_cast<std::size_t>(local) * msg, msg)
               : send;
  co_await region->copy_in_publish(comm.to_global(my), contribution,
                                   static_cast<std::size_t>(local) * msg);
  if (!in_place) {
    // Own block also lands in the recv slice (a local copy, overlapping the
    // shm waits of other ranks).
    co_await comm.cluster().cpu_copy_by(comm.to_global(my),
                                        static_cast<double>(msg));
    hw::copy_payload(node_slice.sub(static_cast<std::size_t>(local) * msg, msg),
                     contribution);
  }
  co_await region->wait_published(static_cast<std::size_t>(l));
  for (std::size_t i = 0; i < static_cast<std::size_t>(l); ++i) {
    const auto c = region->chunk(i);
    if (c.offset == static_cast<std::size_t>(local) * msg) continue;  // own
    co_await region->copy_out(comm.to_global(my), i,
                              node_slice.sub(c.offset, c.len));
  }
}

// Staged n-level phase 1 over a nested partition of the node's local
// ranks (NodePlan; the Sec. 7 socket design is the two-stage case).
// Stage 0 runs MHA-intra inside each innermost group; every later stage
// has the previous stage's group leaders pull their sibling groups' blocks
// through a shared-memory segment homed on their own group, so each
// inter-group byte crosses the group boundary (UPI on socket stages)
// exactly once. Group spans may be uneven; singleton groups degenerate to
// a seeding copy at stage 0 and to pure drains later.
sim::Task<void> plan_phase1(mpi::Comm& comm, int my, hw::BufView send,
                            hw::BufView node_slice, std::size_t msg,
                            bool in_place, int node, int local, int l,
                            const NodePlan& plan, double offload) {
  auto& cl = comm.cluster();
  const int grank = comm.to_global(my);

  // ---- Stage 0: aggregation inside my innermost group ----
  {
    const auto& firsts = plan.stages.front();
    const int g = group_of(firsts, local);
    const int f = firsts[static_cast<std::size_t>(g)];
    const int end = group_end(firsts, g, l);
    const int sz = end - f;
    if (sz > 1) {
      auto& gcomm = comm.world().span_comm(node, f, sz);
      co_await allgather_mha_intra(
          gcomm, local - f, send,
          node_slice.sub(static_cast<std::size_t>(f) * msg,
                         static_cast<std::size_t>(sz) * msg),
          msg, in_place, offload);
    } else if (!in_place && msg > 0) {
      co_await cl.cpu_copy_by(grank, static_cast<double>(msg));
      hw::copy_payload(
          node_slice.sub(static_cast<std::size_t>(local) * msg, msg), send);
    }
  }

  // ---- Stages 1..k: inter-group exchange through shared memory ----
  for (std::size_t st = 1; st < plan.stages.size(); ++st) {
    const auto& child = plan.stages[st - 1];
    const auto& parent = plan.stages[st];
    const int nchildren = static_cast<int>(child.size());
    const int nparents = static_cast<int>(parent.size());
    // One board key per parent group, one region key per child group.
    // Constructed by every rank before any branch so the consumed op
    // sequence numbers stay SPMD-consistent.
    KeyAlloc keys(comm, my, nparents + nchildren);

    const auto [cg, cf, pg, pf, pend, clo, chi, nsib] =
        stage_groups(child, parent, local, l);
    const int csz = group_end(child, cg, l) - cf;
    if (nsib <= 1) continue;  // parent adds no grouping here

    // Segment homed on my child group; all csz members acquire it.
    auto region = comm.share().acquire<shm::ShmRegion>(
        node, keys.key(nparents + cg), csz, [&] {
          return std::make_shared<shm::ShmRegion>(
              cl, node, static_cast<std::size_t>(l) * msg, comm.sink(),
              cl.global_rank(node, cf));
        });
    if (local == cf) {  // child-group leader
      auto board = comm.share().acquire<AddressBoard>(
          node, keys.key(pg), nsib, [&] {
            return std::make_shared<AddressBoard>(comm.engine(), nsib);
          });
      co_await board->put_and_wait(cg - clo, node_slice);
      for (int o = 1; o < nsib; ++o) {
        const int other = clo + (cg - clo + o) % nsib;
        const int of = child[static_cast<std::size_t>(other)];
        const int osz = group_end(child, other, l) - of;
        const std::size_t off = static_cast<std::size_t>(of) * msg;
        const std::size_t len = static_cast<std::size_t>(osz) * msg;
        co_await region->copy_in_publish(grank,
                                         board->view(other - clo).sub(off, len),
                                         off, cl.global_rank(node, of));
        hw::copy_payload(node_slice.sub(off, len), region->view(off, len));
      }
    }
    for (int k = 0; k + 1 < nsib; ++k) {
      co_await region->wait_published(static_cast<std::size_t>(k) + 1);
      if (local == cf) continue;  // leader filled its slice while pulling
      const auto c = region->chunk(static_cast<std::size_t>(k));
      co_await region->copy_out(grank, static_cast<std::size_t>(k),
                                node_slice.sub(c.offset, c.len));
    }
  }
}

// Leader-side phase 2+3 of the phase-sequential path, Ring variant: the
// whole exchange completes before the first chunk is published.
sim::Task<void> leader_ring(mpi::Comm& lcomm, int node, hw::BufView recv,
                            std::size_t chunk, shm::ShmRegion* region,
                            int grank) {
  const int n = lcomm.size();
  const int right = (node + 1) % n;
  const int left = (node - 1 + n) % n;
  int cur = node;
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (cur - 1 + n) % n;
    co_await lcomm.sendrecv(
        node, right, step, recv.sub(static_cast<std::size_t>(cur) * chunk, chunk),
        left, step,
        recv.sub(static_cast<std::size_t>(incoming) * chunk, chunk));
    cur = incoming;
  }
  if (region == nullptr) co_return;
  cur = node;
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (cur - 1 + n) % n;
    co_await region->copy_in_publish(
        grank, recv.sub(static_cast<std::size_t>(incoming) * chunk, chunk),
        static_cast<std::size_t>(incoming) * chunk);
    cur = incoming;
  }
}

// Leader-side phase 2+3 of the phase-sequential path, Recursive Doubling
// variant (power-of-two nodes): publish each step's range after the
// exchange.
sim::Task<void> leader_rd(mpi::Comm& lcomm, int node, hw::BufView recv,
                          std::size_t chunk, shm::ShmRegion* region,
                          int grank) {
  const int n = lcomm.size();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (int k = 0; (1 << k) < n; ++k) {
    const int dist = 1 << k;
    const int partner = node ^ dist;
    const std::size_t own_base =
        static_cast<std::size_t>(node & ~(dist - 1)) * chunk;
    const std::size_t partner_base =
        static_cast<std::size_t>(partner & ~(dist - 1)) * chunk;
    const std::size_t len = static_cast<std::size_t>(dist) * chunk;
    co_await lcomm.sendrecv(node, partner, k, recv.sub(own_base, len), partner,
                            k, recv.sub(partner_base, len));
    ranges.emplace_back(partner_base, len);
  }
  if (region == nullptr) co_return;
  for (const auto& [off, len] : ranges) {
    co_await region->copy_in_publish(grank, recv.sub(off, len), off);
  }
}

// The strictly phase-sequential execution (overlap = false): phase 1
// completes behind a hard boundary before any inter-node traffic, and the
// leader publishes only after its exchange. Kept as the pipeline-pair
// baseline and the overlap-ablation vehicle.
sim::Task<void> hier_barrier(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv, std::size_t msg, bool in_place,
                             LevelTransport inner, const NodePlan* plan,
                             Phase2Algo algo) {
  auto& cl = comm.cluster();
  const int l = cl.ppn();
  const int n = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);
  const std::size_t chunk = static_cast<std::size_t>(l) * msg;
  const hw::BufView node_slice =
      recv.sub(static_cast<std::size_t>(node) * chunk, chunk);

  auto& eng = comm.engine();
  obs::Sink& sink = comm.sink();

  // ---- Phase 1: node-level aggregation ----
  // Phase spans ("phase1"/"phase2"/"phase3") feed the critical-path
  // analyzer's attribution and the phase-2/3 overlap-fraction report.
  auto p1 = sink.open(comm.to_global(my), trace::Kind::kPhase, eng.now(), -1,
                      msg, "phase1");
  if (l > 1 && plan != nullptr) {
    co_await plan_phase1(comm, my, send, node_slice, msg, in_place, node,
                         local, l, *plan, offload_of(inner));
  } else if (l > 1 && inner == LevelTransport::kShm) {
    co_await shm_gather_phase1(comm, my, send, node_slice, msg, in_place,
                               node, local, l, seq);
  } else if (l > 1) {
    co_await allgather_mha_intra(comm.world().node_comm(node), local, send,
                                 node_slice, msg, in_place, offload_of(inner));
  } else {
    co_await coll::seed_own_block(comm, my, send, recv, msg, in_place);
  }
  p1.close(eng.now());
  if (n == 1) co_return;

  // ---- Phases 2 + 3 ----
  std::shared_ptr<shm::ShmRegion> region;
  if (l > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, shm::op_key(comm.ctx(), seq, 2), l, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink());
        });
  }

  if (leader) {
    auto p2 = sink.open(comm.to_global(my), trace::Kind::kPhase, eng.now(), -1,
                        recv.len, "phase2");
    auto& lcomm = comm.world().leader_comm();
    if (algo == Phase2Algo::kRing) {
      co_await leader_ring(lcomm, node, recv, chunk, region.get(),
                           comm.to_global(my));
    } else {
      co_await leader_rd(lcomm, node, recv, chunk, region.get(),
                         comm.to_global(my));
    }
    p2.close(eng.now());
  } else {
    // Members drain published chunks as they appear; region offsets mirror
    // the recv buffer layout.
    auto p3 = sink.open(comm.to_global(my), trace::Kind::kPhase, eng.now(), -1,
                        recv.len, "phase3");
    const int chunks = publish_count(algo, n);
    for (int i = 0; i < chunks; ++i) {
      co_await region->wait_published(static_cast<std::size_t>(i) + 1);
      const auto c = region->chunk(static_cast<std::size_t>(i));
      co_await region->copy_out(comm.to_global(my), static_cast<std::size_t>(i),
                                recv.sub(c.offset, c.len));
    }
    p3.close(eng.now());
  }
}

// The dataflow execution: one task graph per rank, phase boundaries
// replaced by byte-range dependencies. Leaders pre-post every phase-2
// recv; recv completions release chunk sends of the next step and the
// publish task of the landed chunk through external-dependency callbacks;
// members drain publication slots as the leader's publish callbacks
// release them — all three phases stream chunk by chunk.
//
// `nodes` holds one block per node and `local` this node's per-rank
// blocks, so the MHA-intra phase 1 and the Ring phase 2 take variable
// blocks. The shm gather, the NodePlan and RD need equal blocks of `msg`
// bytes; allgatherv_mha uses none of them.
sim::Task<void> hier_graph(mpi::Comm& comm, int my, hw::BufView send,
                           hw::BufView recv, const coll::VarLayout& nodes,
                           const coll::VarLayout& local_layout,
                           std::size_t msg, bool in_place,
                           LevelTransport inner, const NodePlan* plan,
                           Phase2Algo algo) {
  auto& cl = comm.cluster();
  const int l = cl.ppn();
  const int n = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);
  const std::size_t nbase = nodes.offset(node);
  const hw::BufView node_slice = recv.sub(nbase, nodes.count(node));
  auto& eng = comm.engine();
  obs::Sink& sink = comm.sink();
  const int grank = comm.to_global(my);

  coll::GraphExecutor exec(eng, sink, grank);
  coll::TaskGraph g;
  coll::RangeProducers prod;

  // ---- Phase 1 tasks ----
  if (l > 1 && plan != nullptr) {
    // The staged intra-node exchange is data-driven, so it stays one macro
    // task; phase 2 streams against other leaders' finer-grained work.
    const double off = offload_of(inner);
    const int t = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, msg, in_place, node, local, l, plan,
         off] {
          return plan_phase1(comm, my, send, node_slice, msg, in_place, node,
                             local, l, *plan, off);
        },
        coll::TaskOpts{"nlevel", "phase1", -1, node_slice.len, -1});
    prod.add(nbase, node_slice.len, t);
  } else if (l > 1 && inner == LevelTransport::kShm) {
    // Publication order of the gather is data-driven, so it stays one
    // macro task (faithful to the double-copy baseline it models); phase 2
    // streams against *other* leaders' finer-grained work.
    const int t = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, msg, in_place, node, local, l, seq] {
          return shm_gather_phase1(comm, my, send, node_slice, msg, in_place,
                                   node, local, l, seq);
        },
        coll::TaskOpts{"shm-gather", "phase1", -1, node_slice.len, -1});
    prod.add(nbase, node_slice.len, t);
  } else if (l > 1) {
    build_mha_intra_tasks(g, prod, nbase, comm.world().node_comm(node), local,
                          send, node_slice, local_layout, in_place,
                          offload_of(inner), "phase1");
  } else {
    const int t = coll::add_seed_task(g, comm, my, send, node_slice, in_place,
                                      "phase1");
    if (t >= 0) prod.add(nbase, node_slice.len, t);
  }

  if (n == 1) {
    if (!g.empty()) co_await exec.run(g);
    co_return;
  }

  std::shared_ptr<shm::ShmRegion> region;
  if (l > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, shm::op_key(comm.ctx(), seq, 2), l, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink());
        });
  }

  // Phase 2 with the phase-3 publish on the leader; members drain every
  // publication slot the leader's exchange produces.
  const std::size_t chunk = static_cast<std::size_t>(l) * msg;
  if (leader) {
    auto& lcomm = comm.world().leader_comm();
    const coll::ExchangeOpts x{"p2 ", "phase2", region};
    if (algo == Phase2Algo::kRing) {
      coll::build_ring_exchange(g, exec, lcomm, node, recv, nodes, prod, -1,
                                x);
    } else {
      coll::build_rd_exchange(g, exec, lcomm, node, recv, chunk, prod, x);
    }
  } else {
    const int slots = algo == Phase2Algo::kRing
                          ? coll::ring_exchange_publishes(nodes, node)
                          : coll::rd_exchange_publishes(n, chunk);
    coll::build_publish_drain(g, exec, region, grank, recv, slots, "p3 out");
  }

  co_await exec.run(g);
}

}  // namespace

Phase2Algo resolve_phase2(int nodes, int ppn, std::size_t msg,
                          Phase2Algo requested) {
  if (requested != Phase2Algo::kAuto) return requested;
  if (!coll::is_power_of_two(nodes)) return Phase2Algo::kRing;
  // Fig. 8 tuning: RD wins while the per-step node chunk (M * L) is small
  // enough that startup costs dominate; Ring wins once the exchange is
  // bandwidth-bound and its finer-grained distribution overlaps better.
  const std::size_t chunk =
      msg * static_cast<std::size_t>(std::max(1, ppn));
  return chunk <= kRdRingCrossoverChunk ? Phase2Algo::kRD : Phase2Algo::kRing;
}

sim::Task<void> allgather_hierarchy(mpi::Comm& comm, int my, hw::BufView send,
                                    hw::BufView recv, std::size_t msg,
                                    bool in_place, HierarchySpec spec,
                                    bool overlap) {
  auto& cl = comm.cluster();
  spec.validate();
  const LevelTransport inner = spec.levels.front().transport;
  const LevelTransport top = spec.levels.back().transport;  // pins phase 2
  const Phase2Algo phase2 = top == LevelTransport::kRd     ? Phase2Algo::kRD
                            : top == LevelTransport::kRing ? Phase2Algo::kRing
                                                           : Phase2Algo::kAuto;
  // Only depth >= 3 runs a NodePlan, so only it resolves the spec into a
  // Hierarchy (which materializes every node's groups on every rank).
  std::optional<NodePlan> plan;
  if (spec.depth() > 2) plan = Hierarchy(std::move(spec), cl).node_plan();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgather_hierarchy: world comm required");
  }
  if (recv.len != msg * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("allgather_hierarchy: bad recv size");
  }
  if (!in_place && send.len != msg) {
    throw std::invalid_argument("allgather_hierarchy: bad send size");
  }
  const Phase2Algo algo = resolve_phase2(cl.nodes(), cl.ppn(), msg, phase2);
  const NodePlan* p = plan ? &*plan : nullptr;
  if (overlap) {
    const auto nodes = coll::VarLayout::uniform(
        cl.nodes(), static_cast<std::size_t>(cl.ppn()) * msg);
    const auto local = coll::VarLayout::uniform(cl.ppn(), msg);
    co_await hier_graph(comm, my, send, recv, nodes, local, msg, in_place,
                        inner, p, algo);
  } else {
    co_await hier_barrier(comm, my, send, recv, msg, in_place, inner, p, algo);
  }
}

sim::Task<void> allgatherv_mha(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv,
                               const coll::VarLayout& layout, bool in_place) {
  coll::check_allgatherv_args(comm, my, send, recv, layout, in_place);
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgatherv_mha: world comm required");
  }
  // Ranks are node-major, so node k's block is its ranks' blocks in order.
  const int l = cl.ppn();
  std::vector<std::size_t> node_counts(static_cast<std::size_t>(cl.nodes()),
                                       0);
  for (int r = 0; r < comm.size(); ++r) {
    node_counts[static_cast<std::size_t>(r / l)] += layout.count(r);
  }
  const auto nodes = coll::VarLayout::from_counts(std::move(node_counts));
  const auto first = layout.counts.begin() + comm.node_of(my) * l;
  const auto local = coll::VarLayout::from_counts(
      std::vector<std::size_t>(first, first + l));
  co_await hier_graph(comm, my, send, recv, nodes, local, /*msg=*/0, in_place,
                      LevelTransport::kAuto, nullptr, Phase2Algo::kRing);
}

}  // namespace hmca::core
