// Shared test utilities: run an Allgather/Allreduce in data mode and verify
// every rank's result byte-for-byte / element-for-element.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "coll/allgather.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "profiles/profiles.hpp"
#include "sim/engine.hpp"

namespace hmca::testing {

/// Deterministic content byte for position `i` of rank `r`'s block.
inline std::byte block_byte(int r, std::size_t i) {
  return static_cast<std::byte>((static_cast<std::size_t>(r) * 131 + i * 7 + 3) &
                                0xff);
}

// Coroutine parameters are taken by value: a reference parameter would
// dangle when a caller passes a temporary std::function and the coroutine
// suspends (the temporary dies at the end of the spawning full-expression).
inline sim::Task<void> ag_rank_program(mpi::Comm& comm, coll::AllgatherFn fn,
                                       int r, hw::BufView send,
                                       hw::BufView recv, std::size_t msg,
                                       bool in_place) {
  co_await fn(comm, r, send, recv, msg, in_place);
}

/// Run `fn` on a (nodes x ppn) cluster in data mode and EXPECT every rank's
/// recv buffer to contain all blocks in rank order. Returns virtual time;
/// `events`, when given, receives the engine's dispatched-event count.
inline double check_allgather(const coll::AllgatherFn& fn, int nodes, int ppn,
                              std::size_t msg, bool in_place = false,
                              std::uint64_t* events = nullptr) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();

  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto recv = hw::Buffer::data(msg * static_cast<std::size_t>(p));
    hw::Buffer send;
    if (in_place) {
      send = hw::Buffer::data(0);
      for (std::size_t i = 0; i < msg; ++i) {
        recv.bytes()[static_cast<std::size_t>(r) * msg + i] = block_byte(r, i);
      }
    } else {
      send = hw::Buffer::data(msg);
      for (std::size_t i = 0; i < msg; ++i) send.bytes()[i] = block_byte(r, i);
    }
    sends.push_back(std::move(send));
    recvs.push_back(std::move(recv));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(ag_rank_program(comm, fn, r,
                              sends[static_cast<std::size_t>(r)].view(),
                              recvs[static_cast<std::size_t>(r)].view(), msg,
                              in_place));
  }
  eng.run();
  if (events != nullptr) *events = eng.events_dispatched();

  for (int r = 0; r < p; ++r) {
    const auto& recv = recvs[static_cast<std::size_t>(r)];
    for (int src = 0; src < p; ++src) {
      std::size_t bad = msg;  // first mismatching byte, msg = none
      for (std::size_t i = 0; i < msg; ++i) {
        if (recv.bytes()[static_cast<std::size_t>(src) * msg + i] !=
            block_byte(src, i)) {
          bad = i;
          break;
        }
      }
      EXPECT_EQ(bad, msg) << "rank " << r << " block " << src
                          << " first bad byte " << bad << " (nodes=" << nodes
                          << " ppn=" << ppn << " msg=" << msg << ")";
      if (bad != msg) return eng.now();
    }
  }
  return eng.now();
}

inline sim::Task<void> ar_rank_program(mpi::Comm& comm, profiles::AllreduceFn fn,
                                       int r, hw::BufView data,
                                       std::size_t count, mpi::Dtype dtype,
                                       mpi::ReduceOp op) {
  co_await fn(comm, r, data, count, dtype, op);
}

/// Run an Allreduce (int64 data, exact arithmetic) and EXPECT the reduction
/// on every rank. Element e of rank r starts as r + e*granularity-ish.
inline double check_allreduce(const profiles::AllreduceFn& fn, int nodes,
                              int ppn, std::size_t count, mpi::ReduceOp op) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  const std::size_t bytes = count * sizeof(std::int64_t);

  auto init = [](int r, std::size_t e) {
    return static_cast<std::int64_t>((r + 1) * ((e % 7) + 1) - 3);
  };

  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(bytes);
    for (std::size_t e = 0; e < count; ++e) b.as<std::int64_t>()[e] = init(r, e);
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(ar_rank_program(comm, fn, r, bufs[static_cast<std::size_t>(r)].view(),
                              count, mpi::Dtype::kInt64, op));
  }
  eng.run();

  for (std::size_t e = 0; e < count; ++e) {
    std::int64_t want = init(0, e);
    for (int r = 1; r < p; ++r) {
      switch (op) {
        case mpi::ReduceOp::kSum: want += init(r, e); break;
        case mpi::ReduceOp::kProd: want *= init(r, e); break;
        case mpi::ReduceOp::kMax: want = std::max(want, init(r, e)); break;
        case mpi::ReduceOp::kMin: want = std::min(want, init(r, e)); break;
      }
    }
    for (int r = 0; r < p; ++r) {
      const auto got = bufs[static_cast<std::size_t>(r)].as<std::int64_t>()[e];
      EXPECT_EQ(got, want) << "rank " << r << " elem " << e
                           << " (nodes=" << nodes << " ppn=" << ppn
                           << " count=" << count << ")";
      if (got != want) return eng.now();
    }
  }
  return eng.now();
}

}  // namespace hmca::testing
