// Planner lowering unit tests: each primitive in isolation on small
// carry-data worlds, program-order dependency semantics (RAW/WAR/WAW over
// byte ranges), fences, scratch, the multi-chunk paths (payloads past
// the 64 KiB single-chunk ceiling split element-aligned on both the send
// and the deferred-recv side), and the shared per-call plan (one build
// per call, distinct plans for successive calls, the wire-tag budget).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "coll/alltoall.hpp"
#include "coll/graph.hpp"
#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"
#include "coll/prim/program.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/buffer.hpp"
#include "hw/spec.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace hmca::coll::prim {
namespace {

struct RankBufs {
  std::vector<hw::Buffer> send, recv;
};

// Runs `prog` SPMD on a fresh carry-data world of `nodes` x `ppn` and
// returns every rank's buffers for inspection. `seed(r, bufs)` fills rank
// r's payloads before the run.
template <class Seed>
RankBufs run_program(int nodes, int ppn, const Program& prog, Seed seed) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  EXPECT_EQ(p, prog.nranks);

  RankBufs bufs;
  for (int r = 0; r < p; ++r) {
    bufs.send.push_back(hw::Buffer::data(prog.send_bytes));
    bufs.recv.push_back(hw::Buffer::data(prog.recv_bytes));
    seed(r, bufs);
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(Planner::run(comm, r,
                           bufs.send[static_cast<std::size_t>(r)].view(),
                           bufs.recv[static_cast<std::size_t>(r)].view(),
                           [&prog] { return prog; }));
  }
  eng.run();
  return bufs;
}

std::byte pat(int r, std::size_t i) {
  return static_cast<std::byte>((r * 37 + static_cast<int>(i) * 11 + 5) & 0xff);
}

// ---- multicast ----

TEST(PrimPlanner, MulticastDeliversRootRangeToEveryPeer) {
  Program prog;
  prog.nranks = 4;
  prog.send_bytes = 32;
  prog.recv_bytes = 64;
  prog.multicast(2, {0, 1, 2, 3}, Space::kSend, {8, 16}, Space::kRecv, 40);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < 32; ++i) {
      b.send[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].bytes()[40 + i],
                pat(2, 8 + i))
          << "rank " << r << " byte " << i;
    }
  }
}

TEST(PrimPlanner, MulticastRootPeerIsALocalCopy) {
  Program prog;
  prog.nranks = 2;
  prog.recv_bytes = 32;
  prog.multicast(0, {0}, Space::kRecv, {0, 16}, Space::kRecv, 16);

  auto bufs = run_program(1, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < 16; ++i) {
      b.recv[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(bufs.recv[0].bytes()[16 + i], pat(0, i));
    // Rank 1 is not a peer: its buffer is untouched.
    EXPECT_EQ(bufs.recv[1].bytes()[16 + i], std::byte{0});
  }
}

// ---- reduce ----

TEST(PrimPlanner, ReduceCombinesContributorsIntoRootOnly) {
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = 8 * 8;
  prog.reduce(1, {0, 2, 3}, Space::kRecv, {0, 8 * 8}, mpi::Dtype::kInt64,
              mpi::ReduceOp::kSum);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t e = 0; e < 8; ++e) {
      b.recv[static_cast<std::size_t>(r)].as<std::int64_t>()[e] =
          (r + 1) * 100 + static_cast<std::int64_t>(e);
    }
  });
  for (std::size_t e = 0; e < 8; ++e) {
    // Root holds the sum over all four ranks; contributors keep their own.
    EXPECT_EQ(bufs.recv[1].as<std::int64_t>()[e],
              1000 + 4 * static_cast<std::int64_t>(e));
    EXPECT_EQ(bufs.recv[0].as<std::int64_t>()[e],
              100 + static_cast<std::int64_t>(e));
  }
}

TEST(PrimPlanner, OrderedFloatReduceIsExactForIntValuedData) {
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = 16 * 4;
  prog.reduce(0, {1, 2, 3}, Space::kRecv, {0, 16 * 4}, mpi::Dtype::kFloat,
              mpi::ReduceOp::kSum);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t e = 0; e < 16; ++e) {
      b.recv[static_cast<std::size_t>(r)].as<float>()[e] =
          static_cast<float>(r + 1);
    }
  });
  for (std::size_t e = 0; e < 16; ++e) {
    EXPECT_EQ(bufs.recv[0].as<float>()[e], 10.0f);
  }
}

// ---- fence + program-order composition: a reduce-then-broadcast is a
// two-prim allreduce ----

TEST(PrimPlanner, FenceOrdersReduceBeforeMulticastBack) {
  constexpr std::size_t kCount = 24;
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = kCount * 8;
  prog.reduce(0, {1, 2, 3}, Space::kRecv, {0, kCount * 8},
              mpi::Dtype::kInt64, mpi::ReduceOp::kSum);
  prog.fence();
  prog.multicast(0, {0, 1, 2, 3}, Space::kRecv, {0, kCount * 8}, Space::kRecv,
                 0);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t e = 0; e < kCount; ++e) {
      b.recv[static_cast<std::size_t>(r)].as<std::int64_t>()[e] = r + 1;
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (std::size_t e = 0; e < kCount; ++e) {
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].as<std::int64_t>()[e],
                10)
          << "rank " << r << " elem " << e;
    }
  }
}

// ---- shard / unshard ----

TEST(PrimPlanner, ShardUnshardActsAsAllgather) {
  constexpr std::size_t kBlock = 48;
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = 4 * kBlock;
  std::vector<Shard> shards;
  for (int r = 0; r < 4; ++r) {
    shards.push_back({r, {static_cast<std::size_t>(r) * kBlock, kBlock}});
  }
  prog.shard(Space::kRecv, shards);
  prog.unshard(Space::kRecv, {0, 1, 2, 3});

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      b.recv[static_cast<std::size_t>(r)]
          .bytes()[static_cast<std::size_t>(r) * kBlock + i] = pat(r, i);
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (int owner = 0; owner < 4; ++owner) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)]
                      .bytes()[static_cast<std::size_t>(owner) * kBlock + i],
                  pat(owner, i))
            << "rank " << r << " owner " << owner << " byte " << i;
      }
    }
  }
}

// ---- dependency tracking without an explicit fence: a prim reading a
// range the previous prim wrote must observe the write (RAW), and one
// overwriting a read range must wait for the readers (WAR) ----

TEST(PrimPlanner, ProgramOrderRespectedAcrossConflictingRanges) {
  constexpr std::size_t kHalf = 64;
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = 2 * kHalf;
  // Prim 0: rank 0's low half lands in everyone's high half.
  prog.multicast(0, {0, 1, 2, 3}, Space::kRecv, {0, kHalf}, Space::kRecv,
                 kHalf);
  // Prim 1: rank 1's (now overwritten) high half lands in everyone's low
  // half — it must read prim 0's output, not rank 1's original bytes.
  prog.multicast(1, {0, 1, 2, 3}, Space::kRecv, {kHalf, kHalf}, Space::kRecv,
                 0);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < 2 * kHalf; ++i) {
      b.recv[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < kHalf; ++i) {
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].bytes()[kHalf + i],
                pat(0, i))
          << "rank " << r << " high byte " << i;
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].bytes()[i], pat(0, i))
          << "rank " << r << " low byte " << i;
    }
  }
}

// ---- scratch space: lazily allocated, private per rank, usable as a relay
// hop ----

TEST(PrimPlanner, ScratchRelaysBetweenPrims) {
  Program prog;
  prog.nranks = 4;
  prog.send_bytes = 32;
  prog.recv_bytes = 32;
  prog.scratch_bytes = 32;
  prog.multicast(0, {1}, Space::kSend, {0, 32}, Space::kScratch, 0);
  prog.multicast(1, {0, 1, 2, 3}, Space::kScratch, {0, 32}, Space::kRecv, 0);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < 32; ++i) {
      b.send[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].bytes()[i], pat(0, i))
          << "rank " << r << " byte " << i;
    }
  }
}

// ---- multi-chunk paths: payloads past the single-chunk ceiling must split
// identically on the contributor and the deferred-recv side ----

TEST(PrimPlanner, MultiChunkMulticastPastSingleChunkCeiling) {
  constexpr std::size_t kLen = 256 * 1024;
  ASSERT_GT(chunks_for(kLen), 1);
  Program prog;
  prog.nranks = 2;
  prog.send_bytes = kLen;
  prog.recv_bytes = kLen;
  prog.multicast(0, {0, 1}, Space::kSend, {0, kLen}, Space::kRecv, 0);

  auto bufs = run_program(2, 1, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < kLen; ++i) {
      b.send[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (int r = 0; r < 2; ++r) {
    std::size_t bad = kLen;
    const auto* bytes = bufs.recv[static_cast<std::size_t>(r)].bytes();
    for (std::size_t i = 0; i < kLen; ++i) {
      if (bytes[i] != pat(0, i)) {
        bad = i;
        break;
      }
    }
    EXPECT_EQ(bad, kLen) << "rank " << r << " first bad byte";
  }
}

TEST(PrimPlanner, MultiChunkReduceSplitsByElements) {
  // 40000 int64 elements = 320000 bytes: multiple chunks whose element
  // boundaries do not land on byte-even splits of the range.
  constexpr std::size_t kCount = 40000;
  ASSERT_GT(chunks_for(kCount * 8), 1);
  Program prog;
  prog.nranks = 4;
  prog.recv_bytes = kCount * 8;
  prog.reduce(0, {1, 2, 3}, Space::kRecv, {0, kCount * 8}, mpi::Dtype::kInt64,
              mpi::ReduceOp::kSum);

  auto bufs = run_program(2, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t e = 0; e < kCount; ++e) {
      b.recv[static_cast<std::size_t>(r)].as<std::int64_t>()[e] =
          r + 1 + static_cast<std::int64_t>(e % 3);
    }
  });
  std::size_t bad = kCount;
  for (std::size_t e = 0; e < kCount; ++e) {
    const std::int64_t want = 10 + 4 * static_cast<std::int64_t>(e % 3);
    if (bufs.recv[0].as<std::int64_t>()[e] != want) {
      bad = e;
      break;
    }
  }
  EXPECT_EQ(bad, kCount) << "first bad element";
}

// ---- zero-length prims lower to nothing and the program still completes ----

TEST(PrimPlanner, ZeroLengthTransfersAreNoops) {
  Program prog;
  prog.nranks = 2;
  prog.recv_bytes = 16;
  prog.multicast(0, {0, 1}, Space::kRecv, {0, 0}, Space::kRecv, 8);
  prog.fence();
  prog.reduce(0, {1}, Space::kRecv, {0, 0}, mpi::Dtype::kInt64,
              mpi::ReduceOp::kSum);

  auto bufs = run_program(1, 2, prog, [](int r, RankBufs& b) {
    for (std::size_t i = 0; i < 16; ++i) {
      b.recv[static_cast<std::size_t>(r)].bytes()[i] = pat(r, i);
    }
  });
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(bufs.recv[static_cast<std::size_t>(r)].bytes()[i], pat(r, i));
    }
  }
}

// ---- one plan per call: the first rank to arrive builds, validates and
// numbers the program; every rank takes that plan and lowers its share ----

TEST(PrimPlanner, BuilderRunsOncePerCall) {
  constexpr std::size_t kMsg = 24;
  auto spec = hw::ClusterSpec::thor(2, 3);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  const std::size_t bytes = kMsg * static_cast<std::size_t>(p);

  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    sends.push_back(hw::Buffer::data(bytes));
    recvs.push_back(hw::Buffer::data(bytes));
    for (std::size_t i = 0; i < bytes; ++i) {
      sends.back().bytes()[i] = pat(r, i);
    }
  }
  int builds = 0;
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    eng.spawn(Planner::run(comm, r, sends[i].view(), recvs[i].view(),
                           [&builds, p] {
                             ++builds;
                             return alltoallv_direct(
                                 coll::AlltoallvLayout::uniform(p, kMsg));
                           }));
  }
  eng.run();
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(comm.share().pending_entries(), 0u);
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < kMsg; ++i) {
        const std::size_t at = static_cast<std::size_t>(src) * kMsg + i;
        ASSERT_EQ(recvs[static_cast<std::size_t>(r)].bytes()[at],
                  pat(src, static_cast<std::size_t>(r) * kMsg + i))
            << "rank " << r << " block " << src << " byte " << i;
      }
    }
  }
}

// Rank 0 has no part in the first program, so it finishes that call at
// once and reaches the alltoall while the other ranks have not yet taken
// the first plan: each call must key its own plan.
sim::Task<void> three_calls(mpi::Comm& comm, int r, const Program& relay,
                            hw::BufView send, hw::BufView recv,
                            std::size_t msg, hw::BufView data,
                            std::size_t count) {
  co_await Planner::run(comm, r, send, recv, [&relay] { return relay; });
  co_await coll::alltoall_direct(comm, r, send, recv, msg);
  co_await coll::reduce_scatter_ring_any(comm, r, data, count,
                                         mpi::Dtype::kInt64,
                                         mpi::ReduceOp::kSum);
}

TEST(PrimPlanner, SuccessiveCallsGetDistinctPlans) {
  constexpr std::size_t kMsg = 40;
  constexpr std::size_t kCount = 100;
  auto spec = hw::ClusterSpec::thor(2, 3);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  const std::size_t bytes = kMsg * static_cast<std::size_t>(p);

  // Rank 1's first byte lands at byte 0 of rank 2's receive buffer; the
  // alltoall that follows overwrites it.
  Program relay;
  relay.nranks = p;
  relay.send_bytes = relay.recv_bytes = bytes;
  relay.multicast(1, {2}, Space::kSend, {0, 1}, Space::kRecv, 0);

  std::vector<hw::Buffer> sends, recvs, data;
  for (int r = 0; r < p; ++r) {
    sends.push_back(hw::Buffer::data(bytes));
    recvs.push_back(hw::Buffer::data(bytes));
    data.push_back(hw::Buffer::data(kCount * 8));
    for (std::size_t i = 0; i < bytes; ++i) {
      sends.back().bytes()[i] = pat(r, i);
    }
    for (std::size_t e = 0; e < kCount; ++e) {
      data.back().as<std::int64_t>()[e] =
          r + 1 + static_cast<std::int64_t>(e);
    }
  }
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    eng.spawn(three_calls(comm, r, relay, sends[i].view(), recvs[i].view(),
                          kMsg, data[i].view(), kCount));
  }
  eng.run();
  EXPECT_EQ(comm.share().pending_entries(), 0u);
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < kMsg; ++i) {
        const std::size_t at = static_cast<std::size_t>(src) * kMsg + i;
        ASSERT_EQ(recvs[static_cast<std::size_t>(r)].bytes()[at],
                  pat(src, static_cast<std::size_t>(r) * kMsg + i))
            << "alltoall: rank " << r << " block " << src << " byte " << i;
      }
    }
    const auto [off, len] = chunk_range(kCount, p, r);
    for (std::size_t e = off; e < off + len; ++e) {
      // Sum over ranks q of (q + 1 + e).
      const std::int64_t want =
          p * (p + 1) / 2 + p * static_cast<std::int64_t>(e);
      ASSERT_EQ(data[static_cast<std::size_t>(r)].as<std::int64_t>()[e], want)
          << "reduce_scatter: rank " << r << " elem " << e;
    }
  }
}

// ---- the wire-tag budget is per ordered rank pair and checked at plan
// time ----

TEST(PrimPlanner, TagBudgetOverrunThrowsBeforeAnyByteMoves) {
  // One single-chunk transfer per tag 0..kMaxUserTag fits; one more does
  // not.
  Program prog;
  prog.nranks = 2;
  prog.send_bytes = prog.recv_bytes = 1;
  for (int i = 0; i < mpi::kMaxUserTag + 2; ++i) {
    prog.multicast(0, {1}, Space::kSend, {0, 1}, Space::kRecv, 0);
  }
  auto spec = hw::ClusterSpec::thor(2, 1);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto send = hw::Buffer::make(1, false);
  auto recv = hw::Buffer::make(1, false);
  for (int r = 0; r < 2; ++r) {
    eng.spawn(Planner::run(comm, r, send.view(), recv.view(),
                           [&prog] { return prog; }));
  }
  std::string what;
  try {
    eng.run();
  } catch (const PlanError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("tag budget exceeded between ranks 0 and 1"),
            std::string::npos)
      << what;
  EXPECT_EQ(eng.now(), 0.0);
  EXPECT_EQ(comm.share().pending_entries(), 0u);
}

}  // namespace
}  // namespace hmca::coll::prim
