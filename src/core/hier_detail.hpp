// Internal helpers shared by the hierarchical collective engines
// (core/hierarchical.cpp and core/hierarchy.cpp). Not part of the public
// API — everything here is an implementation convention of how node-share
// key blocks and stage partitions are handled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "shm/shm.hpp"

namespace hmca::core::detail {

/// A block of distinct node-share keys for one collective invocation. The
/// salt field of shm::op_key holds 4 bits, so each consumed sequence number
/// yields 15 usable keys (salt 0 is reserved for single-key callers);
/// every rank constructs the allocator at the same point of the SPMD
/// program, so the consumed sequence numbers — and therefore key(i) —
/// agree across the communicator.
class KeyAlloc {
 public:
  KeyAlloc(mpi::Comm& comm, int my, int count) : ctx_(comm.ctx()) {
    const int seqs = (count + 14) / 15;
    seqs_.reserve(static_cast<std::size_t>(seqs));
    for (int i = 0; i < seqs; ++i) seqs_.push_back(comm.next_op_seq(my));
  }
  std::uint64_t key(int i) const {
    return shm::op_key(ctx_, seqs_.at(static_cast<std::size_t>(i) / 15),
                       1 + i % 15);
  }

 private:
  int ctx_;
  std::vector<std::uint64_t> seqs_;
};

/// Group index of a node-local rank under a stage partition (`firsts`
/// ascending, starting at 0; the final boundary is implicit).
inline int group_of(const std::vector<int>& firsts, int local) {
  return static_cast<int>(std::upper_bound(firsts.begin(), firsts.end(),
                                           local) -
                          firsts.begin()) -
         1;
}

/// End (exclusive) of group `g` of a stage partition over `l` node-local
/// ranks.
inline int group_end(const std::vector<int>& firsts, int g, int l) {
  return g + 1 < static_cast<int>(firsts.size())
             ? firsts[static_cast<std::size_t>(g) + 1]
             : l;
}

/// Where node-local rank `local` sits under one stage pair of a nested
/// partition of `l` ranks (`child` refines `parent`): its child group `cg`
/// starting at `cf`, its parent group `pg` over [pf, pend), and the child
/// groups [clo, chi) that parent group spans, `nsib` siblings. Boundaries
/// nest, so pf and pend are child boundaries too.
struct StageGroups {
  int cg, cf, pg, pf, pend, clo, chi, nsib;
};

inline StageGroups stage_groups(const std::vector<int>& child,
                                const std::vector<int>& parent, int local,
                                int l) {
  StageGroups s{};
  s.cg = group_of(child, local);
  s.cf = child[static_cast<std::size_t>(s.cg)];
  s.pg = group_of(parent, local);
  s.pf = parent[static_cast<std::size_t>(s.pg)];
  s.pend = group_end(parent, s.pg, l);
  s.clo = group_of(child, s.pf);
  s.chi = s.pend >= l ? static_cast<int>(child.size())
                      : group_of(child, s.pend);
  s.nsib = s.chi - s.clo;
  return s;
}

}  // namespace hmca::core::detail
