// Allgatherv: variable-block-size gathers — flat algorithms and the
// hierarchical MHA variant, including zero-size contributions and skewed
// layouts.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ios>
#include <vector>

#include "coll/allgatherv.hpp"
#include "core/mha_allgatherv.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::coll {
namespace {

using hmca::testing::block_byte;

using AgvFn = std::function<sim::Task<void>(mpi::Comm&, int, hw::BufView,
                                            hw::BufView, const VarLayout&,
                                            bool)>;

sim::Task<void> agv_rank(mpi::Comm& comm, const AgvFn& fn, int r,
                         hw::BufView send, hw::BufView recv,
                         const VarLayout& layout, bool in_place) {
  co_await fn(comm, r, send, recv, layout, in_place);
}

struct Pinned {
  double latency = 0;
  std::uint64_t events = 0;
};

// Runs `fn` in data mode, checks every rank's result and returns the
// virtual completion time with the engine's dispatched-event count.
Pinned check_agv(const AgvFn& fn, int nodes, int ppn,
                 std::vector<std::size_t> counts, bool in_place = false) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(p));
  if (counts.size() != static_cast<std::size_t>(p)) return {};
  const auto layout = VarLayout::from_counts(counts);

  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto recv = hw::Buffer::data(layout.total);
    hw::Buffer send = hw::Buffer::data(in_place ? 0 : layout.count(r));
    for (std::size_t i = 0; i < layout.count(r); ++i) {
      if (in_place) {
        recv.bytes()[layout.offset(r) + i] = block_byte(r, i);
      } else {
        send.bytes()[i] = block_byte(r, i);
      }
    }
    sends.push_back(std::move(send));
    recvs.push_back(std::move(recv));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(agv_rank(comm, fn, r, sends[static_cast<std::size_t>(r)].view(),
                       recvs[static_cast<std::size_t>(r)].view(), layout,
                       in_place));
  }
  eng.run();
  const Pinned run{eng.now(), eng.events_dispatched()};
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < layout.count(src); ++i) {
        const auto got =
            recvs[static_cast<std::size_t>(r)].bytes()[layout.offset(src) + i];
        EXPECT_EQ(got, block_byte(src, i))
            << "rank " << r << " block " << src << " byte " << i;
        if (got != block_byte(src, i)) return run;
      }
    }
  }
  return run;
}

void expect_pin(const Pinned& got, double latency, std::uint64_t events) {
  EXPECT_EQ(got.latency, latency) << std::hexfloat << got.latency;
  EXPECT_EQ(got.events, events);
}

AgvFn fn_ring() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
            const VarLayout& l, bool ip) {
    return allgatherv_ring(c, r, s, rv, l, ip);
  };
}
AgvFn fn_direct() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
            const VarLayout& l, bool ip) {
    return allgatherv_direct(c, r, s, rv, l, ip);
  };
}
AgvFn fn_mha() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
            const VarLayout& l, bool ip) {
    return core::allgatherv_mha(c, r, s, rv, l, ip);
  };
}

TEST(VarLayout, PrefixOffsets) {
  const auto l = VarLayout::from_counts({10, 0, 5, 3});
  EXPECT_EQ(l.total, 18u);
  EXPECT_EQ(l.offset(0), 0u);
  EXPECT_EQ(l.offset(1), 10u);
  EXPECT_EQ(l.offset(2), 10u);
  EXPECT_EQ(l.offset(3), 15u);
  EXPECT_THROW(VarLayout::from_counts({}), std::invalid_argument);
}

TEST(AllgathervRing, SkewedBlocks) {
  check_agv(fn_ring(), 2, 2, {100, 7, 4096, 1});
}

TEST(AllgathervRing, ZeroSizeContributions) {
  check_agv(fn_ring(), 1, 4, {0, 64, 0, 128});
}

TEST(AllgathervRing, InPlace) {
  check_agv(fn_ring(), 2, 2, {32, 64, 96, 128}, true);
}

TEST(AllgathervDirect, SkewedBlocks) {
  check_agv(fn_direct(), 2, 3, {1, 2000, 3, 40000, 5, 600});
}

TEST(AllgathervDirect, ZeroSizeContributions) {
  check_agv(fn_direct(), 1, 3, {0, 0, 50});
}

TEST(AllgathervMha, SkewedAcrossNodes) {
  check_agv(fn_mha(), 2, 4, {100, 7, 4096, 1, 64, 0, 2048, 9});
}

TEST(AllgathervMha, LargeIrregularBlocks) {
  check_agv(fn_mha(), 3, 2, {1u << 16, 3, 1u << 18, 0, 1234, 1u << 15});
}

TEST(AllgathervMha, SingleNodeIntra) {
  check_agv(fn_mha(), 1, 6, {64, 1u << 17, 0, 300, 1u << 16, 12});
}

TEST(AllgathervMha, InPlace) {
  check_agv(fn_mha(), 2, 2, {512, 1024, 2048, 4096}, true);
}

TEST(AllgathervMha, PpnOne) {
  check_agv(fn_mha(), 4, 1, {100, 200, 300, 400});
}

// ---- Exact pins of the hierarchical Allgatherv's phase-2/3 graph ----
//
// Latency (hex float) and dispatched events of the variable-block Ring
// exchange with leader publishes and member drains: skewed node blocks,
// an all-empty node (its zero-length block must still wait for phase 1),
// a node block that chunks, in-place operation and ppn 1.

TEST(AllgathervMhaPin, SkewedThreeNodes) {
  expect_pin(
      check_agv(fn_mha(), 3, 2, {1u << 16, 3, 1u << 18, 0, 1234, 1u << 15}),
      0x1.31a92b1bd515ep-14, 584);
}

TEST(AllgathervMhaPin, EmptyNodeBlock) {
  expect_pin(check_agv(fn_mha(), 3, 2, {100, 200, 0, 0, 300, 50}),
             0x1.24870cbded4fdp-18, 199);
}

TEST(AllgathervMhaPin, ChunkedNodeBlock) {
  expect_pin(check_agv(fn_mha(), 2, 2, {1u << 20, 1u << 19, 4096, 8}),
             0x1.621e0ee47f336p-12, 928);
}

TEST(AllgathervMhaPin, InPlace) {
  expect_pin(check_agv(fn_mha(), 3, 2,
                       {1u << 19, 7, 1u << 17, 1u << 18, 0, 64}, true),
             0x1.12729108a3a32p-13, 1463);
}

TEST(AllgathervMhaPin, PpnOne) {
  expect_pin(check_agv(fn_mha(), 4, 1, {100, 1u << 20, 0, 300}),
             0x1.d4a25c686b235p-13, 1504);
}

// ---- Exact pin of the flat Ring baseline on a skewed layout ----

TEST(BaselinePin, AllgathervRingSkewed) {
  expect_pin(
      check_agv(fn_ring(), 3, 2, {1u << 16, 3, 1u << 18, 0, 1234, 1u << 15}),
      0x1.13457d0dd5ed2p-13, 345);
  expect_pin(check_agv(fn_ring(), 2, 2, {1u << 20, 0, 4096, 8}, true),
             0x1.f1a3d4129bd1p-13, 124);
}

TEST(Allgatherv, ArgValidation) {
  auto spec = hw::ClusterSpec::thor(1, 2);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto layout = VarLayout::from_counts({8, 8});
  auto send = hw::Buffer::data(8);
  auto recv = hw::Buffer::data(10);  // wrong total
  auto t = [&]() -> sim::Task<void> {
    co_await allgatherv_ring(comm, 0, send.view(), recv.view(), layout, false);
  };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

TEST(AllgathervPerf, MhaBeatsFlatRingForSkewedInterNode) {
  // Same structural win as the equal-block case.
  auto spec = hw::ClusterSpec::thor(4, 8);
  spec.carry_data = false;
  std::vector<std::size_t> counts;
  for (int r = 0; r < 32; ++r) {
    counts.push_back(static_cast<std::size_t>(1024 + 511 * (r % 5)));
  }
  const auto layout = VarLayout::from_counts(counts);
  auto measure = [&](const AgvFn& fn) {
    sim::Engine eng;
    mpi::World world(eng, spec);
    auto& comm = world.comm_world();
    std::vector<hw::Buffer> sends, recvs;
    for (int r = 0; r < 32; ++r) {
      sends.push_back(hw::Buffer::phantom(layout.count(r)));
      recvs.push_back(hw::Buffer::phantom(layout.total));
    }
    for (int r = 0; r < 32; ++r) {
      eng.spawn(agv_rank(comm, fn, r, sends[static_cast<std::size_t>(r)].view(),
                         recvs[static_cast<std::size_t>(r)].view(), layout,
                         false));
    }
    eng.run();
    return eng.now();
  };
  EXPECT_LT(measure(fn_mha()), measure(fn_ring()));
}

}  // namespace
}  // namespace hmca::coll
