// google-benchmark microbenchmarks of the simulation substrate itself:
// event-queue throughput, water-filling cost, planner lowering, end-to-end
// simulated collectives per second, and the critical-path analyzer's
// scaling in stream length. These gate the wall-clock cost of the paper-figure
// benches.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/alltoall.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "obs/critical_path.hpp"
#include "osu/harness.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/sync.hpp"
#include "trace/trace.hpp"

using namespace hmca;

namespace {

sim::Task<void> sleeper(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(1e-6);
}

void BM_EngineEventThroughput(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < tasks; ++i) eng.spawn(sleeper(eng, 100));
    eng.run();
    benchmark::DoNotOptimize(eng.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * tasks * 100);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(16)->Arg(256);

sim::Task<void> turn_taker(sim::Engine& eng, sim::Semaphore& sem, int turns) {
  for (int i = 0; i < turns; ++i) {
    co_await sem.acquire();
    co_await eng.sleep(1e-6);
    sem.release();
  }
}

// The executor's contention pattern: 64 coroutines take turns on one 1-slot
// semaphore, so every release wakes all waiters at the current time and all
// but one re-suspend. Unlike BM_EngineEventThroughput, almost every event
// here is scheduled at `now`.
void BM_EngineSameTimeWakeups(benchmark::State& state) {
  constexpr int kTasks = 64;
  const int turns = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    sim::Semaphore sem(eng, 1);
    for (int i = 0; i < kTasks; ++i) eng.spawn(turn_taker(eng, sem, turns));
    eng.run();
    events += eng.events_dispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineSameTimeWakeups)->Arg(4)->Arg(16);

sim::Task<void> one_flow(sim::FluidNetwork& net, sim::ResourceId r) {
  sim::FlowSpec f;
  f.uses = {{r, 1.0}};
  f.bytes = 1000.0;
  co_await net.transfer(std::move(f));
}

sim::Task<void> one_spec(sim::FluidNetwork& net, sim::FlowSpec f) {
  co_await net.transfer(std::move(f));
}

void BM_FluidWaterFilling(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::FluidNetwork net(eng);
    auto r = net.add_resource("link", 1e9);
    for (int i = 0; i < flows; ++i) eng.spawn(one_flow(net, r));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidWaterFilling)->Arg(32)->Arg(512);

// Node-shaped fluid load: 8 nodes x 4 rails, every rail of node n sending
// to the same rail of nodes n+1 and n+2, through its hca tx, the peer's hca
// rx, its PCIe link and its node memory (weights 1/1/1/2). That is 64 flow
// classes chained into one sharing component, as a ring exchange chains
// them. Byte counts all differ, so every completion re-solves the network.
void BM_FluidNodeClasses(benchmark::State& state) {
  constexpr int kNodes = 8;
  constexpr int kRails = 4;
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::FluidNetwork net(eng);
    std::vector<sim::ResourceId> tx, rx, pcie, mem;
    for (int n = 0; n < kNodes; ++n) {
      const std::string node = std::to_string(n);
      mem.push_back(net.add_resource("mem" + node, 40e9));
      for (int h = 0; h < kRails; ++h) {
        const std::string rail = node + "." + std::to_string(h);
        tx.push_back(net.add_resource("tx" + rail, 12.5e9));
        rx.push_back(net.add_resource("rx" + rail, 12.5e9));
        pcie.push_back(net.add_resource("pcie" + rail, 16e9));
      }
    }
    for (int i = 0; i < flows; ++i) {
      const int n = i % kNodes;
      const int h = i / kNodes % kRails;
      const int dst = (n + 1 + i / (kNodes * kRails) % 2) % kNodes;
      sim::FlowSpec f;
      f.uses = {{tx[n * kRails + h], 1.0},
                {rx[dst * kRails + h], 1.0},
                {pcie[n * kRails + h], 1.0},
                {mem[n], 2.0}};
      f.bytes = 1e6 + 3e3 * i;
      eng.spawn(one_spec(net, std::move(f)));
    }
    eng.run();
    benchmark::DoNotOptimize(net.bytes_served(mem[0]));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidNodeClasses)->Arg(256)->Arg(512);

void BM_SimulatedAllgatherRing(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto spec = hw::ClusterSpec::thor(nodes, 8);
  const coll::AllgatherFn fn = [](mpi::Comm& c, int r, hw::BufView s,
                                  hw::BufView rv, std::size_t m, bool ip) {
    return coll::allgather_ring(c, r, s, rv, m, ip);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(osu::measure_allgather(spec, fn, 4096));
  }
  state.SetItemsProcessed(state.iterations() * nodes * 8);
}
BENCHMARK(BM_SimulatedAllgatherRing)->Arg(2)->Arg(8);

sim::Task<void> a2a_rank(mpi::Comm& comm, int r, hw::BufView send,
                         hw::BufView recv) {
  co_await coll::alltoall_direct(comm, r, send, recv, 64);
}

// The planner layer: one alltoall_direct of 64-byte blocks on a world of
// `ranks` (8 per node), null sink, no payload. The program has ranks^2
// prims, so building, validating and lowering it weighs as much as the
// simulated exchange itself.
void BM_PlannerAlltoallDirect(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto spec = hw::ClusterSpec::thor(ranks / 8, 8);
  const std::size_t bytes = 64 * static_cast<std::size_t>(ranks);
  for (auto _ : state) {
    sim::Engine eng;
    mpi::World world(eng, spec);
    auto& comm = world.comm_world();
    std::vector<hw::Buffer> bufs;
    for (int r = 0; r < ranks; ++r) {
      bufs.push_back(hw::Buffer::make(bytes, false));
      bufs.push_back(hw::Buffer::make(bytes, false));
    }
    for (int r = 0; r < ranks; ++r) {
      const auto i = static_cast<std::size_t>(2 * r);
      eng.spawn(a2a_rank(comm, r, bufs[i].view(), bufs[i + 1].view()));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * ranks * ranks);
}
BENCHMARK(BM_PlannerAlltoallDirect)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// A synthetic pipelined stream of `n` spans on 64 ranks: each rank runs a
// copy, a NIC transfer to its right neighbour and a dataflow task per
// microsecond step, inside per-rank phase1/phase2/phase3 spans.
std::vector<trace::Span> pipelined_spans(std::size_t n) {
  constexpr int kRanks = 64;
  const std::size_t steps = n / kRanks;
  const double third = static_cast<double>(steps) * 1e-6 / 3;
  std::vector<trace::Span> spans;
  spans.reserve(n);
  for (int r = 0; r < kRanks; ++r) {
    for (int p = 0; p < 3; ++p) {
      spans.push_back({r, trace::Kind::kPhase, p * third, (p + 1) * third, -1,
                       0, "phase" + std::to_string(p + 1)});
    }
  }
  for (std::size_t i = 0; spans.size() < n; ++i) {
    const int r = static_cast<int>(i % kRanks);
    const double t0 = static_cast<double>(i / kRanks) * 1e-6 + r * 1e-9;
    switch (i / kRanks % 3) {
      case 0:
        spans.push_back({r, trace::Kind::kCopyIn, t0, t0 + 9e-7, -1, 4096, ""});
        break;
      case 1:
        spans.push_back({r, trace::Kind::kNicXfer, t0, t0 + 1e-6,
                         (r + 1) % kRanks, 4096, ""});
        break;
      default:
        spans.push_back({r, trace::Kind::kTask, t0, t0 + 8e-7, -1, 4096,
                         "task:send:p2#c" + std::to_string(i % 16)});
        break;
    }
  }
  return spans;
}

void BM_CriticalPath(benchmark::State& state) {
  const auto spans = pipelined_spans(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::analyze_critical_path(spans));
  }
  state.SetComplexityN(state.range(0));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CriticalPath)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
