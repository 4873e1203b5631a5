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

}  // namespace hmca::core::detail
