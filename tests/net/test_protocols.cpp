// Protocol-boundary and stress behaviour of the messaging engine: the
// eager/rendezvous and shm/CMA thresholds, incast, wildcard interleaving,
// and overlap structure of the MHA-inter pipeline (Fig. 6).
#include <gtest/gtest.h>

#include <cstring>

#include "core/hierarchy.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "net/net.hpp"
#include "obs/sink.hpp"
#include "osu/harness.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace hmca::net {
namespace {

double one_send(hw::ClusterSpec spec, std::size_t n, int src = 0,
                int dst = 1) {
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto sbuf = hw::Buffer::phantom(n);
  auto rbuf = hw::Buffer::phantom(n);
  auto s = [&]() -> sim::Task<void> {
    co_await world.net().send(src, dst, 0, sbuf.view());
  };
  auto r = [&]() -> sim::Task<void> {
    co_await world.net().recv(dst, src, 0, rbuf.view());
  };
  eng.spawn(s());
  eng.spawn(r());
  eng.run();
  return eng.now();
}

TEST(Protocols, EagerRendezvousBoundaryIsContinuousEnough) {
  // Crossing the eager threshold changes the protocol; the latency step
  // must stay small (no cliff) and monotonicity must recover immediately.
  auto spec = hw::ClusterSpec::thor(2, 1);
  const auto thr = spec.eager_threshold;
  const double below = one_send(spec, thr);
  const double above = one_send(spec, thr + 1);
  EXPECT_GT(above, 0.0);
  EXPECT_LT(above, 2.5 * below);  // rendezvous adds handshakes, not chaos
  EXPECT_GT(one_send(spec, 4 * thr), above);
}

TEST(Protocols, IntraCopyThresholdSwitchesToSingleCopy) {
  // Above the CMA threshold the payload is copied once instead of twice:
  // the per-byte slope must drop.
  auto spec = hw::ClusterSpec::thor(1, 2);
  const auto thr = spec.intra_single_copy_threshold;
  const double t2a = one_send(spec, thr / 2);
  const double t2b = one_send(spec, thr);         // still double copy
  const double slope2 = (t2b - t2a) / (thr / 2.0);
  const double t1a = one_send(spec, 4 * thr);     // single copy
  const double t1b = one_send(spec, 8 * thr);
  const double slope1 = (t1b - t1a) / (4.0 * thr);
  EXPECT_LT(slope1, 0.7 * slope2);
}

TEST(Protocols, IncastSharesTheReceiverFairly) {
  // 7 senders to one receiver, rendezvous-sized messages: receiver-side
  // rx port serializes the aggregate; no sender starves.
  auto spec = hw::ClusterSpec::thor(8, 1);
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& net = world.net();
  const std::size_t n = 1u << 20;
  auto sbuf = hw::Buffer::phantom(n);
  std::vector<hw::Buffer> rbufs;
  for (int i = 0; i < 7; ++i) rbufs.push_back(hw::Buffer::phantom(n));
  std::vector<double> done(7, -1.0);
  auto sender = [&](int r) -> sim::Task<void> {
    co_await net.send(r + 1, 0, r, sbuf.view());
  };
  auto receiver = [&](int r) -> sim::Task<void> {
    co_await net.recv(0, r + 1, r, rbufs[static_cast<std::size_t>(r)].view());
    done[static_cast<std::size_t>(r)] = eng.now();
  };
  for (int r = 0; r < 7; ++r) {
    eng.spawn(sender(r));
    eng.spawn(receiver(r));
  }
  eng.run();
  // Aggregate of 7 MB into a node with 2 rails (25 GB/s): >= 280 us, and
  // every transfer finishes within the total window.
  const double floor_s = 7.0 * n / (2 * spec.hca_bw);
  EXPECT_GE(eng.now(), floor_s * 0.95);
  for (double d : done) {
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, eng.now());
  }
}

TEST(Protocols, WildcardsDrainUnexpectedQueueInArrivalOrder) {
  auto spec = hw::ClusterSpec::thor(1, 4);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& net = world.net();
  std::vector<hw::Buffer> srcs;
  for (int i = 0; i < 3; ++i) {
    auto b = hw::Buffer::data(8);
    std::memset(b.bytes(), '1' + i, 8);
    srcs.push_back(std::move(b));
  }
  std::string order;
  auto sender = [&](int r, double at) -> sim::Task<void> {
    co_await eng.sleep(at);
    co_await net.send(r, 3, 7, srcs[static_cast<std::size_t>(r)].view());
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await eng.sleep(1.0);  // everything lands unexpected
    for (int i = 0; i < 3; ++i) {
      auto d = hw::Buffer::data(8);
      co_await net.recv(3, kAnySource, kAnyTag, d.view());
      order.push_back(d.as<char>()[0]);
    }
  };
  eng.spawn(sender(0, 0.3));
  eng.spawn(sender(1, 0.1));
  eng.spawn(sender(2, 0.2));
  eng.spawn(receiver());
  eng.run();
  EXPECT_EQ(order, "231");  // arrival order, not rank order
}

TEST(Protocols, Fig6OverlapIsObservableInTheTrace) {
  // The heart of Sec. 3.2: during MHA-inter, a leader's inter-node
  // transfers overlap its members' shm copy-outs.
  trace::Tracer tracer;
  obs::CollectSink sink(&tracer);
  const auto spec = hw::ClusterSpec::thor(4, 4);
  osu::measure_allgather(
      spec,
      [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
         bool ip) {
        return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                         core::HierarchySpec::mha());
      },
      262144, sink);
  // Leader of node 0 is rank 0; its members are ranks 1..3.
  double overlap = 0.0;
  for (int member = 1; member < 4; ++member) {
    overlap += tracer.overlap_time(0, trace::Kind::kNicXfer, member,
                                   trace::Kind::kCopyOut);
  }
  EXPECT_GT(overlap, 0.0);
  // And with the overlap disabled, there is none.
  trace::Tracer flat;
  obs::CollectSink flat_sink(&flat);
  osu::measure_allgather(
      spec,
      [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
         bool ip) {
        return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                         core::HierarchySpec::mha(),
                                         /*overlap=*/false);
      },
      262144, flat_sink);
  double none = 0.0;
  for (int member = 1; member < 4; ++member) {
    none += flat.overlap_time(0, trace::Kind::kNicXfer, member,
                              trace::Kind::kCopyOut);
  }
  EXPECT_LT(none, overlap * 0.25);
}

}  // namespace
}  // namespace hmca::net
