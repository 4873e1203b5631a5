// Malformed-program rejection: Program::validate() (and the Planner, which
// validates before lowering) must refuse bad compositions with errors that
// name the offending prim and its shapes — a composition bug should read
// like a compile error, not a simulation hang.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"
#include "coll/prim/program.hpp"
#include "hw/buffer.hpp"
#include "hw/spec.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace hmca::coll::prim {
namespace {

// Runs validate() and returns the PlanError message (failing the test if
// the program was accepted).
std::string rejection(const Program& prog) {
  try {
    prog.validate();
  } catch (const PlanError& e) {
    return e.what();
  }
  ADD_FAILURE() << "program was accepted";
  return {};
}

Program base(int nranks = 4) {
  Program p;
  p.nranks = nranks;
  p.send_bytes = 64;
  p.recv_bytes = 256;
  p.scratch_bytes = 128;
  return p;
}

// ---- every reduce combines in declared peer order, so floating-point
// reduces need no extra declaration ----

TEST(PrimProgram, OrderedFloatReduceAccepted) {
  Program p = base();
  p.reduce(0, {1, 2, 3}, Space::kRecv, {0, 64}, mpi::Dtype::kFloat,
           mpi::ReduceOp::kSum);
  EXPECT_NO_THROW(p.validate());
}

TEST(PrimProgram, IntReduceNeedsNoOrdering) {
  Program p = base();
  p.reduce(0, {1, 2}, Space::kRecv, {0, 32}, mpi::Dtype::kInt64,
           mpi::ReduceOp::kProd);
  EXPECT_NO_THROW(p.validate());
}

// ---- satellite requirement: overlapping shard ranges name both owners
// and both ranges ----

TEST(PrimProgram, OverlappingShardRangesRejected) {
  Program p = base();
  p.shard(Space::kRecv, {{0, {0, 100}}, {1, {96, 32}}});
  const std::string msg = rejection(p);
  EXPECT_NE(msg.find("overlapping shard ranges"), std::string::npos) << msg;
  EXPECT_NE(msg.find("owner 0 [0, 100)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("owner 1 [96, 128)"), std::string::npos) << msg;
}

TEST(PrimProgram, DisjointShardsAccepted) {
  Program p = base();
  p.shard(Space::kRecv, {{0, {0, 96}}, {1, {96, 32}}, {2, {128, 0}}});
  p.unshard(Space::kRecv, {0, 1, 2, 3});
  EXPECT_NO_THROW(p.validate());
}

TEST(PrimProgram, ZeroLengthShardsNeverOverlap) {
  // Zero-length tails (uneven chunk splits) share offsets legally.
  Program p = base();
  p.shard(Space::kRecv, {{0, {0, 256}}, {1, {256, 0}}, {2, {256, 0}}});
  EXPECT_NO_THROW(p.validate());
}

// ---- range / peer / space shape errors ----

TEST(PrimProgram, RangeBeyondSpaceNamesSpaceAndExtent) {
  Program p = base();
  p.multicast(0, {1}, Space::kRecv, {200, 100}, Space::kRecv, 0);
  const std::string msg = rejection(p);
  EXPECT_NE(msg.find("source range [200, 300)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exceeds recv space of 256 bytes"), std::string::npos)
      << msg;
}

TEST(PrimProgram, DestinationRangeCheckedAgainstItsOwnSpace) {
  Program p = base();
  // 64 bytes fit the recv source but overrun scratch at offset 100.
  p.multicast(0, {1}, Space::kRecv, {0, 64}, Space::kScratch, 100);
  EXPECT_NE(rejection(p).find("scratch space of 128 bytes"),
            std::string::npos);
}

TEST(PrimProgram, PeerOutsideWorldRejected) {
  Program p = base(4);
  p.multicast(0, {1, 4}, Space::kSend, {0, 8}, Space::kRecv, 0);
  EXPECT_NE(rejection(p).find("peer rank 4 outside world [0, 4)"),
            std::string::npos);
}

TEST(PrimProgram, DuplicatePeerRejected) {
  Program p = base();
  p.multicast(0, {1, 2, 1}, Space::kSend, {0, 8}, Space::kRecv, 0);
  EXPECT_NE(rejection(p).find("duplicate peer 1"), std::string::npos);
}

TEST(PrimProgram, RootListedAsContributorRejected) {
  Program p = base();
  p.reduce(2, {1, 2}, Space::kRecv, {0, 8}, mpi::Dtype::kInt32,
           mpi::ReduceOp::kSum);
  EXPECT_NE(rejection(p).find("root 2 listed as its own contributor"),
            std::string::npos);
}

TEST(PrimProgram, WritingSendSpaceRejected) {
  Program mc = base();
  mc.multicast(0, {1}, Space::kRecv, {0, 8}, Space::kSend, 0);
  EXPECT_NE(rejection(mc).find("read-only send space"), std::string::npos);

  Program rd = base();
  rd.reduce(0, {1}, Space::kSend, {0, 8}, mpi::Dtype::kInt32,
            mpi::ReduceOp::kSum);
  EXPECT_NE(rejection(rd).find("read-only send space"), std::string::npos);
}

TEST(PrimProgram, UnshardWithoutShardRejected) {
  Program p = base();
  p.unshard(Space::kRecv, {0, 1});
  EXPECT_NE(
      rejection(p).find("unshard of recv space without a preceding shard"),
      std::string::npos);
}

TEST(PrimProgram, ReduceRangeMustBeElementAligned) {
  Program p = base();
  p.reduce(0, {1}, Space::kRecv, {0, 10}, mpi::Dtype::kInt32,
           mpi::ReduceOp::kSum);
  EXPECT_NE(rejection(p).find("not a multiple of the 4-byte element size"),
            std::string::npos);
}

TEST(PrimProgram, EmptyProgramNeedsRanks) {
  Program p;
  p.nranks = 0;
  EXPECT_THROW(p.validate(), PlanError);
}

// ---- error messages carry the prim index and label ----

TEST(PrimProgram, ErrorNamesPrimIndexAndLabel) {
  Program p = base();
  p.fence();
  p.multicast(0, {9}, Space::kSend, {0, 8}, Space::kRecv, 0).label =
      "leader-exchange";
  const std::string msg = rejection(p);
  EXPECT_NE(msg.find("prim #1 (multicast 'leader-exchange')"),
            std::string::npos)
      << msg;
}

// ---- the Planner front door rejects before any simulated byte moves ----

TEST(PrimProgram, PlannerValidatesBeforeLowering) {
  auto spec = hw::ClusterSpec::thor(1, 4);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();

  Program p = base();
  p.shard(Space::kRecv, {{0, {0, 100}}, {1, {50, 100}}});

  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < 4; ++r) {
    sends.push_back(hw::Buffer::data(p.send_bytes));
    recvs.push_back(hw::Buffer::data(p.recv_bytes));
  }
  for (int r = 0; r < 4; ++r) {
    eng.spawn(Planner::run(comm, r, sends[static_cast<std::size_t>(r)].view(),
                           recvs[static_cast<std::size_t>(r)].view(),
                           [&p] { return p; }));
  }
  EXPECT_THROW(eng.run(), PlanError);
}

// ---- the builders emit programs that validate ----

TEST(PrimProgram, BuilderProgramsValidate) {
  EXPECT_NO_THROW(
      alltoallv_direct(coll::AlltoallvLayout::uniform(8, 4096)).validate());
  EXPECT_NO_THROW(reduce_scatter_ring(6, 1000, mpi::Dtype::kDouble,
                                      mpi::ReduceOp::kSum)
                      .validate());
  EXPECT_NO_THROW(
      reduce_scatter_rh(8, 64, mpi::Dtype::kFloat, mpi::ReduceOp::kSum)
          .validate());
  PlanLevels levels = {
      {{{{0, 1, 2, 3}, 0}, {{4, 5, 6, 7}, 4}}},  // two node groups
      {{{{0, 4}, 0}}},                           // leader level
  };
  EXPECT_NO_THROW(
      allreduce_rs_ag(levels, 96, mpi::Dtype::kFloat, mpi::ReduceOp::kSum)
          .validate());
}

}  // namespace
}  // namespace hmca::coll::prim
