#include "coll/prim/builders.hpp"

#include <algorithm>
#include <string>

#include "coll/graph.hpp"

namespace hmca::coll::prim {
namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Element range of ring chunk `c` as a byte Range.
Range elem_range(std::size_t count, int chunks, int c, std::size_t elem) {
  const auto [eoff, ecnt] = chunk_range(count, chunks, c);
  return {eoff * elem, ecnt * elem};
}

/// The ring reduce-scatter prim sequence over `members` (in listed
/// order), element chunks `chunk_range(count, m, i)`: after the last
/// step, members[i] owns fully-reduced chunk i.
void ring_rs_prims(Program& prog, const std::vector<int>& members,
                   std::size_t count, mpi::Dtype dtype, mpi::ReduceOp rop,
                   const std::string& phase) {
  const int m = static_cast<int>(members.size());
  const std::size_t elem = mpi::dtype_size(dtype);
  for (int s = 0; s < m - 1; ++s) {
    for (int i = 0; i < m; ++i) {
      const int chunk = ((i - 1 - s) % m + m) % m;
      const Range r = elem_range(count, m, chunk, elem);
      if (r.len == 0) continue;
      Prim& p = prog.reduce(members[(i + 1) % m], {members[i]}, Space::kRecv,
                            r, dtype, rop);
      p.label = "rs-ring:s" + std::to_string(s);
      p.phase = phase;
    }
  }
}

}  // namespace

Program alltoallv_direct(const AlltoallvLayout& layout) {
  const int n = layout.nranks;
  Program prog;
  prog.nranks = n;
  for (int r = 0; r < n; ++r) {
    prog.send_bytes = std::max(prog.send_bytes, layout.send_total(r));
    prog.recv_bytes = std::max(prog.recv_bytes, layout.recv_total(r));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t c = layout.count(i, j);
      if (c == 0) continue;
      Prim& p = prog.multicast(i, {j}, Space::kSend,
                               {layout.send_offset(i, j), c}, Space::kRecv,
                               layout.recv_offset(i, j));
      p.label = "a2av-direct";
      p.phase = "exchange";
    }
  }
  return prog;
}

Program alltoall_hier(const std::vector<PlanGroup>& groups, int nranks,
                      std::size_t msg) {
  const std::size_t n = static_cast<std::size_t>(nranks);
  std::size_t pb_max = 0;
  for (const PlanGroup& g : groups) pb_max = std::max(pb_max, g.members.size());

  Program prog;
  prog.nranks = nranks;
  prog.send_bytes = prog.recv_bytes = n * msg;
  // Per-leader scratch layout (sized for the largest group):
  //   region1 [0, pb*n*msg)            gathered: member k at k*n*msg
  //   region2 [pb*n*msg, +n*pb*msg)    inbound: global sender s at s*pb*msg
  //   region3 [2*pb*n*msg, +pb*n*msg)  assembled: member j at j*n*msg
  prog.scratch_bytes = 3 * pb_max * n * msg;
  if (msg == 0) return prog;

  // Phase 1 — gather: every member (leader included) lands its full send
  // buffer in its leader's region1 slot.
  for (const PlanGroup& g : groups) {
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      Prim& p = prog.multicast(g.members[k], {g.leader}, Space::kSend,
                               {0, n * msg}, Space::kScratch, k * n * msg);
      p.label = "a2a-hier";
      p.phase = "gather";
    }
  }

  // Phase 2 — exchange: leader A ships, per own member k, the slice of
  // member k's buffer destined to group B, into B's region2 keyed by the
  // global sender rank.
  for (const PlanGroup& ga : groups) {
    const std::size_t pb_a = ga.members.size();
    for (const PlanGroup& gb : groups) {
      if (&ga == &gb) continue;
      const std::size_t pb_b = gb.members.size();
      const std::size_t base2_b = pb_b * n * msg;
      for (std::size_t k = 0; k < pb_a; ++k) {
        const std::size_t s = static_cast<std::size_t>(ga.members[k]);
        // Member k's blocks for B's members are contiguous only if B's
        // members are contiguous ranks; ship them block by block.
        for (std::size_t j = 0; j < pb_b; ++j) {
          const std::size_t dst = static_cast<std::size_t>(gb.members[j]);
          Prim& p = prog.multicast(
              ga.leader, {gb.leader}, Space::kScratch,
              {k * n * msg + dst * msg, msg}, Space::kScratch,
              base2_b + s * pb_b * msg + j * msg);
          p.label = "a2a-hier";
          p.phase = "exchange";
        }
      }
    }
  }

  // Phase 3 — assemble: each leader lays out, per member j, the full
  // n-block row (sender s at s*msg) in region3.
  for (const PlanGroup& gb : groups) {
    const std::size_t pb_b = gb.members.size();
    const std::size_t base2_b = pb_b * n * msg;
    const std::size_t base3_b = 2 * pb_b * n * msg;
    for (std::size_t j = 0; j < pb_b; ++j) {
      const std::size_t dst = static_cast<std::size_t>(gb.members[j]);
      const std::size_t row = base3_b + j * n * msg;
      for (std::size_t s = 0; s < n; ++s) {
        // Local senders sit in region1; remote ones arrived in region2.
        std::size_t src_off = base2_b + s * pb_b * msg + j * msg;
        for (std::size_t k = 0; k < pb_b; ++k) {
          if (static_cast<std::size_t>(gb.members[k]) == s) {
            src_off = k * n * msg + dst * msg;
            break;
          }
        }
        Prim& p = prog.multicast(gb.leader, {gb.leader}, Space::kScratch,
                                 {src_off, msg}, Space::kScratch,
                                 row + s * msg);
        p.label = "a2a-hier";
        p.phase = "assemble";
      }
    }
  }

  // Phase 4 — scatter: each member receives its assembled row.
  for (const PlanGroup& gb : groups) {
    const std::size_t base3_b = 2 * gb.members.size() * n * msg;
    for (std::size_t j = 0; j < gb.members.size(); ++j) {
      Prim& p = prog.multicast(gb.leader, {gb.members[j]}, Space::kScratch,
                               {base3_b + j * n * msg, n * msg}, Space::kRecv,
                               0);
      p.label = "a2a-hier";
      p.phase = "scatter";
    }
  }
  return prog;
}

Program reduce_scatter_ring(int nranks, std::size_t count, mpi::Dtype dtype,
                            mpi::ReduceOp rop) {
  Program prog;
  prog.nranks = nranks;
  prog.recv_bytes = count * mpi::dtype_size(dtype);
  std::vector<int> members(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) members[static_cast<std::size_t>(r)] = r;
  ring_rs_prims(prog, members, count, dtype, rop, "reduce-scatter");
  return prog;
}

Program reduce_scatter_rh(int nranks, std::size_t count, mpi::Dtype dtype,
                          mpi::ReduceOp rop) {
  const std::size_t elem = mpi::dtype_size(dtype);
  Program prog;
  prog.nranks = nranks;
  prog.recv_bytes = count * elem;
  if (!is_pow2(nranks) ||
      count % static_cast<std::size_t>(nranks) != 0) {
    throw PlanError(
        "recursive-halving reduce_scatter needs a power-of-two world (" +
        std::to_string(nranks) + " ranks) and a divisible count (" +
        std::to_string(count) + ")");
  }
  const std::size_t blen = count / static_cast<std::size_t>(nranks) * elem;
  if (blen == 0) return prog;
  int stage = 0;
  for (int g = nranks; g > 1; g /= 2, ++stage) {
    const int half = g / 2;
    for (int i = 0; i < nranks; ++i) {
      // Rank i keeps the half-window of blocks containing block i; its
      // partner across the window contributes that window.
      const std::size_t first = static_cast<std::size_t>(i & ~(half - 1));
      Prim& p = prog.reduce(i, {i ^ half}, Space::kRecv,
                            {first * blen, static_cast<std::size_t>(half) *
                                               blen},
                            dtype, rop);
      p.label = "rs-rh:s" + std::to_string(stage);
      p.phase = "reduce-scatter";
    }
  }
  return prog;
}

Program allreduce_rs_ag(const PlanLevels& levels, std::size_t count,
                        mpi::Dtype dtype, mpi::ReduceOp rop) {
  if (levels.empty() || levels.back().groups.size() != 1) {
    throw PlanError(
        "allreduce_rs_ag needs a hierarchy whose top level has exactly one "
        "group (got " +
        std::to_string(levels.empty() ? 0 : levels.back().groups.size()) +
        ")");
  }
  int nranks = 0;
  for (const PlanGroup& g : levels.front().groups) {
    nranks += static_cast<int>(g.members.size());
  }
  const std::size_t elem = mpi::dtype_size(dtype);
  const std::size_t bytes = count * elem;
  const int depth = static_cast<int>(levels.size());

  Program prog;
  prog.nranks = nranks;
  prog.recv_bytes = bytes;
  if (bytes == 0) return prog;

  // Reduce up: each group's members fold into the leader, level by level.
  for (int l = 0; l + 1 < depth; ++l) {
    for (const PlanGroup& g : levels[static_cast<std::size_t>(l)].groups) {
      std::vector<int> contributors;
      for (const int m : g.members) {
        if (m != g.leader) contributors.push_back(m);
      }
      if (contributors.empty()) continue;
      Prim& p = prog.reduce(g.leader, contributors, Space::kRecv, {0, bytes},
                            dtype, rop);
      p.label = "rs_ag:up";
      p.phase = "reduce-up:l" + std::to_string(l);
    }
  }

  // Across the top leaders: ring reduce-scatter, then shard/unshard (the
  // direct allgather of the chunk ownership the ring just established).
  const PlanGroup& top = levels.back().groups.front();
  const int m = static_cast<int>(top.members.size());
  if (m > 1) {
    ring_rs_prims(prog, top.members, count, dtype, rop, "inter-rs");
    std::vector<Shard> shards;
    for (int i = 0; i < m; ++i) {
      const Range r = elem_range(count, m, i, elem);
      if (r.len == 0) continue;
      shards.push_back({top.members[static_cast<std::size_t>(i)], r});
    }
    prog.shard(Space::kRecv, std::move(shards));
    Prim& ag = prog.unshard(Space::kRecv, top.members);
    ag.label = "rs_ag:ag";
    ag.phase = "inter-ag";
  }

  // Multicast down: leaders fan the full reduced vector back out.
  for (int l = depth - 2; l >= 0; --l) {
    for (const PlanGroup& g : levels[static_cast<std::size_t>(l)].groups) {
      if (g.members.size() < 2) continue;
      Prim& p = prog.multicast(g.leader, g.members, Space::kRecv, {0, bytes},
                               Space::kRecv, 0);
      p.label = "rs_ag:down";
      p.phase = "bcast-down:l" + std::to_string(l);
    }
  }
  return prog;
}

}  // namespace hmca::coll::prim
