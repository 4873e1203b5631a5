// Rooted collectives (broadcast) and alltoall.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::block_byte;

using BcastFn = std::function<sim::Task<void>(mpi::Comm&, int, int,
                                              hw::BufView)>;

sim::Task<void> bcast_rank(mpi::Comm& comm, const BcastFn& fn, int r, int root,
                           hw::BufView data) {
  co_await fn(comm, r, root, data);
}

void check_bcast(const BcastFn& fn, int nodes, int ppn, std::size_t bytes,
                 int root) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(bytes);
    if (r == root) {
      for (std::size_t i = 0; i < bytes; ++i) b.bytes()[i] = block_byte(root, i);
    }
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(bcast_rank(comm, fn, r, root,
                         bufs[static_cast<std::size_t>(r)].view()));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)].bytes()[i],
                block_byte(root, i))
          << "rank " << r << " byte " << i << " root " << root;
    }
  }
}

BcastFn fn_binomial() {
  return [](mpi::Comm& c, int r, int root, hw::BufView d) {
    return bcast_binomial(c, r, root, d);
  };
}
BcastFn fn_scatter_ag() {
  return [](mpi::Comm& c, int r, int root, hw::BufView d) {
    return bcast_scatter_allgather(c, r, root, d);
  };
}

using BTopo = std::tuple<int, int, std::size_t, int>;
class BcastSweep : public ::testing::TestWithParam<BTopo> {};

TEST_P(BcastSweep, Binomial) {
  auto [nodes, ppn, bytes, root] = GetParam();
  check_bcast(fn_binomial(), nodes, ppn, bytes, root);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, BcastSweep,
    ::testing::Values(BTopo{1, 2, 64, 0}, BTopo{1, 5, 777, 3},
                      BTopo{2, 2, 4096, 0}, BTopo{2, 2, 4096, 3},
                      BTopo{3, 2, 1024, 5}, BTopo{4, 4, 65536, 7},
                      BTopo{2, 1, 100, 1}));

class BcastSaSweep : public ::testing::TestWithParam<BTopo> {};

TEST_P(BcastSaSweep, ScatterAllgather) {
  auto [nodes, ppn, bytes, root] = GetParam();
  check_bcast(fn_scatter_ag(), nodes, ppn, bytes, root);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, BcastSaSweep,
    ::testing::Values(BTopo{1, 4, 4096, 0},    // divisible by 4
                      BTopo{1, 4, 4096, 2},    // rotated root
                      BTopo{2, 2, 65536, 1},
                      BTopo{3, 2, 6144, 4},    // non-p2 comm size
                      BTopo{4, 2, 32768, 0}));

TEST(BcastScatterAllgather, RejectsIndivisibleSize) {
  EXPECT_THROW(check_bcast(fn_scatter_ag(), 1, 4, 10, 0),
               std::invalid_argument);
}

TEST(BcastShape, ScatterAllgatherBeatsBinomialForLargeMessages) {
  // van de Geijn: ~2x less root bandwidth for big payloads.
  auto measure = [](const BcastFn& fn, std::size_t bytes) {
    auto spec = hw::ClusterSpec::thor(8, 1);
    spec.carry_data = false;
    sim::Engine eng;
    mpi::World world(eng, spec);
    auto& comm = world.comm_world();
    std::vector<hw::Buffer> bufs;
    for (int r = 0; r < 8; ++r) bufs.push_back(hw::Buffer::phantom(bytes));
    for (int r = 0; r < 8; ++r) {
      eng.spawn(bcast_rank(comm, fn, r, 0,
                           bufs[static_cast<std::size_t>(r)].view()));
    }
    eng.run();
    return eng.now();
  };
  const std::size_t big = 8u << 20;
  EXPECT_LT(measure(fn_scatter_ag(), big), measure(fn_binomial(), big));
  // And binomial wins for tiny payloads (fewer rounds than 2(N-1) steps).
  EXPECT_LT(measure(fn_binomial(), 64), measure(fn_scatter_ag(), 64));
}

// ---- Alltoall ----

void check_alltoall(int nodes, int ppn, std::size_t msg) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();

  // Block (r -> dst) content depends on both endpoints.
  auto cell = [](int src, int dst, std::size_t i) {
    return static_cast<std::byte>((src * 37 + dst * 11 + i * 3) & 0xff);
  };
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto s = hw::Buffer::data(msg * static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      for (std::size_t i = 0; i < msg; ++i) {
        s.bytes()[static_cast<std::size_t>(d) * msg + i] = cell(r, d, i);
      }
    }
    sends.push_back(std::move(s));
    recvs.push_back(hw::Buffer::data(msg * static_cast<std::size_t>(p)));
  }
  auto rank = [&](int r) -> sim::Task<void> {
    co_await alltoall_pairwise(comm, r, sends[static_cast<std::size_t>(r)].view(),
                               recvs[static_cast<std::size_t>(r)].view(), msg);
  };
  for (int r = 0; r < p; ++r) eng.spawn(rank(r));
  eng.run();

  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) {
      for (std::size_t i = 0; i < msg; ++i) {
        ASSERT_EQ(recvs[static_cast<std::size_t>(r)]
                      .bytes()[static_cast<std::size_t>(s) * msg + i],
                  cell(s, r, i))
            << "rank " << r << " from " << s << " byte " << i;
      }
    }
  }
}

TEST(Alltoall, PowerOfTwoXorSchedule) { check_alltoall(2, 2, 128); }
TEST(Alltoall, NonPowerOfTwoShiftSchedule) { check_alltoall(3, 2, 96); }
TEST(Alltoall, SingleNode) { check_alltoall(1, 5, 64); }
TEST(Alltoall, LargeBlocks) { check_alltoall(2, 2, 65536); }

}  // namespace
}  // namespace hmca::coll
