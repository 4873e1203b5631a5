// The OSU-style harness: measurement plumbing, formatting, sweeps, and the
// --algo registry flag.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "core/mha.hpp"
#include "core/selector.hpp"
#include "osu/algo_flag.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"

namespace hmca::osu {
namespace {

AlgoFlag parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return parse_algo_flag(static_cast<int>(args.size()),
                         const_cast<char**>(args.data()));
}

TEST(AlgoFlag, ParsesAllForms) {
  EXPECT_TRUE(parse({}).name.empty());
  EXPECT_FALSE(parse({}).list);
  EXPECT_EQ(parse({"--algo", "ring"}).name, "ring");
  EXPECT_EQ(parse({"--algo=ring"}).name, "ring");
  EXPECT_TRUE(parse({"--algo", "list"}).list);
  EXPECT_TRUE(parse({"--algo=list"}).list);
  EXPECT_THROW(parse({"--algo"}), std::invalid_argument);
  EXPECT_THROW(parse({"--algo="}), std::invalid_argument);
}

TEST(AlgoFlag, ListIncludesFlatAndCoreEntries) {
  core::register_core_algorithms();
  std::ostringstream os;
  print_algo_list(os);
  const std::string out = os.str();
  for (const char* needle :
       {"allgather", "ring", "node_aware_bruck", "mha_inter", "allreduce",
        "ring_mha", "bcast", "allgatherv"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
}

TEST(AlgoFlag, PinnedAllgatherRunsAndMeasures) {
  core::register_core_algorithms();
  const auto spec = hw::ClusterSpec::thor(2, 2);
  EXPECT_GT(measure_allgather(spec, pinned_allgather("node_aware_bruck"), 4096),
            0.0);
  EXPECT_GT(measure_allreduce(spec, pinned_allreduce("rd"), 4096), 0.0);
}

TEST(AlgoFlag, UnknownNameThrowsEagerly) {
  EXPECT_THROW(pinned_allgather("nope"), std::invalid_argument);
  EXPECT_THROW(pinned_allreduce("nope"), std::invalid_argument);
}

TEST(AlgoFlag, InapplicablePinFailsAtCallTime) {
  core::register_core_algorithms();
  // mha_inter_rd needs a power-of-two node count; pinning it on 3 nodes
  // must fail when the measurement runs, naming the algorithm.
  const auto spec = hw::ClusterSpec::thor(3, 2);
  EXPECT_THROW(measure_allgather(spec, pinned_allgather("mha_inter_rd"), 4096),
               std::invalid_argument);
}

coll::AllgatherFn fn_ring() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) { return coll::allgather_ring(c, r, s, rv, m, ip); };
}

TEST(Harness, AllgatherLatencyPositiveAndMonotonicInSize) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const double t_small = measure_allgather(spec, fn_ring(), 1024);
  const double t_large = measure_allgather(spec, fn_ring(), 1u << 20);
  EXPECT_GT(t_small, 0.0);
  EXPECT_GT(t_large, t_small);
}

TEST(Harness, Pt2PtLatencyIntraVsInter) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const double intra = measure_pt2pt_latency(spec, 0, 1, 1024);
  const double inter = measure_pt2pt_latency(spec, 0, 2, 1024);
  EXPECT_GT(intra, 0.0);
  EXPECT_GT(inter, 0.0);
  EXPECT_LT(intra, inter);  // small messages: shm beats the wire
}

TEST(Harness, BandwidthApproachesLinkRateForLargeMessages) {
  // Fig. 1's saturation: 4 MB messages on 2 rails -> ~2 x 12.5 GB/s.
  const auto spec = hw::ClusterSpec::thor(2, 1);
  const double bw = measure_pt2pt_bandwidth(spec, 0, 1, 4u << 20, 16);
  EXPECT_GT(bw, 0.85 * 2 * spec.hca_bw);
  EXPECT_LT(bw, 1.02 * 2 * spec.hca_bw);
}

TEST(Harness, IntraNodeBandwidthMatchesCmaRate) {
  const auto spec = hw::ClusterSpec::thor(1, 2);
  const double bw = measure_pt2pt_bandwidth(spec, 0, 1, 4u << 20, 16);
  EXPECT_GT(bw, 0.8 * spec.core_copy_bw);
  EXPECT_LT(bw, 1.05 * spec.core_copy_bw);
}

TEST(Harness, AllreduceLatencyMeasured) {
  const auto spec = hw::ClusterSpec::thor(2, 2);
  const coll::AllreduceFn fn = [](mpi::Comm& c, int r, hw::BufView d,
                                      std::size_t n, mpi::Dtype t,
                                      mpi::ReduceOp op) {
    return coll::allreduce_rd(c, r, d, n, t, op);
  };
  EXPECT_GT(measure_allreduce(spec, fn, 4096), 0.0);
}

// ---- Pins: every family's harness path through the `mha` subject ----
//
// Hex-float latencies at 2x4, the dispatched-event count of the counted
// allgather, and the registry listing. These fix the harness runner, the
// subject resolution and the registry's iteration order exactly.

TEST(HarnessPin, MhaAllgather) {
  const auto spec = hw::ClusterSpec::thor(2, 4);
  const double t = measure_allgather(spec, profiles::mha().allgather, 65536);
  EXPECT_EQ(t, 0x1.21cc1038e6285p-14) << std::hexfloat << t;
}

TEST(HarnessPin, MhaAllreduce) {
  const auto spec = hw::ClusterSpec::thor(2, 4);
  const double t = measure_allreduce(spec, profiles::mha().allreduce, 1u << 20);
  EXPECT_EQ(t, 0x1.675cd1b94a175p-12) << std::hexfloat << t;
}

TEST(HarnessPin, MhaAlltoall) {
  const auto spec = hw::ClusterSpec::thor(2, 4);
  const coll::AlltoallFn fn = [](mpi::Comm& c, int my, hw::BufView s,
                                 hw::BufView rv, std::size_t m) {
    return core::mha_alltoall(c, my, s, rv, m);
  };
  const double t = measure_alltoall(spec, fn, 4096);
  EXPECT_EQ(t, 0x1.246c2af33ad41p-15) << std::hexfloat << t;
}

TEST(HarnessPin, MhaReduceScatter) {
  const auto spec = hw::ClusterSpec::thor(2, 4);
  const coll::ReduceScatterFn fn = [](mpi::Comm& c, int my, hw::BufView d,
                                      std::size_t n, mpi::Dtype t,
                                      mpi::ReduceOp op) {
    return core::mha_reduce_scatter(c, my, d, n, t, op);
  };
  const double t = measure_reduce_scatter(spec, fn, 1u << 20);
  EXPECT_EQ(t, 0x1.c56198ad76f7ap-13) << std::hexfloat << t;
}

TEST(HarnessPin, MhaAllgatherCounted) {
  const auto run = measure_allgather_counted(hw::ClusterSpec::thor(2, 4),
                                             profiles::mha().allgather, 65536);
  EXPECT_EQ(run.sim_seconds, 0x1.21cc1038e6285p-14)
      << std::hexfloat << run.sim_seconds;
  EXPECT_EQ(run.events, 657u);
}

// `--algo list`: every family's entries in registration order.
constexpr const char* kAlgoList = R"(allgather:
  ring              flat Ring: N-1 neighbour steps, bandwidth-optimal
  rd                Recursive Doubling: log2(N) exchanges, power-of-two sizes
  bruck             Bruck: ceil(log2 N) store-and-forward steps, any N
  direct            Direct Spread: all transfers posted nonblocking up front
  rd_or_bruck       RD when N is a power of two, Bruck otherwise
  multi_leader2     Kandalla two-level, 2 leader groups/node, strict phases
  multi_leader1     Kandalla two-level, single leader/node, strict phases
  node_aware_bruck  locality-aware: intra-node exchange, inter-node Bruck over leaders
  mha_intra         Sec. 3.1: CMA direct spread + tuned HCA loopback offload (Eq. 1)
  mha_inter_rd      Sec. 3.2 hierarchical, RD inter-leader phase, overlapped
  mha_inter_ring    Sec. 3.2 hierarchical, Ring inter-leader phase, overlapped
  mha_inter         Sec. 3.2 hierarchical, model-resolved RD/Ring phase 2 (Fig. 8)
  mha_inter_barrier Sec. 3.2 with strict phase barriers (dataflow-off baseline)
  single_leader     Mamidala prior design: shm gather, RD exchange, overlapped
  hier2             declarative depth-2 hierarchy (node<cluster); == mha_inter
  hier3             Sec. 7: 3-level NUMA-aware hierarchy (socket<node<cluster)
allreduce:
  rd                recursive doubling on the full vector, non-power-of-two fold
  ring              ring reduce-scatter + flat ring allgather (Patarasuk-Yuan)
  ring_mha          ring reduce-scatter + MHA Allgather of the chunks (Sec. 5.4)
  rs_ag             composed: planner reduce-up + leader RS/AG + multicast-down
alltoall:
  direct            planner full-mesh: every pairwise block in flight at once
  pairwise          classic pairwise exchange: n-1 sendrecv rounds
  hier_leader       hierarchical leader exchange: gather, leader mesh, scatter
alltoallv:
  direct            planner full-mesh over the variable count matrix
  pairwise          pairwise exchange rounds over variable blocks
reduce_scatter:
  ring              planner ring over element chunks, uneven counts allowed
  rh                planner recursive halving, power-of-two worlds, divisible counts
bcast:
  binomial          binomial tree, log2(N) rounds
  scatter_allgather van de Geijn scatter + ring allgather, large messages
  mha               hierarchical: leader scatter-allgather + pipelined shm
  hier              declarative hierarchy bcast: leader bcast + shm cascade
allgatherv:
  ring              chunked ring over variable-size blocks
  direct            all variable-size transfers posted up front
  mha               hierarchical Allgatherv: Eq. 1 offload at the mean block, Ring phase 2, overlapped phases
)";

TEST(HarnessPin, AlgoList) {
  core::register_core_algorithms();
  std::ostringstream os;
  print_algo_list(os);
  EXPECT_EQ(os.str(), kAlgoList);
}

TEST(Subject, ResolvesProfilesAndRegistryPins) {
  // "mha" is the MHA profile (the selection engine for alltoall and
  // reduce_scatter), "algo:<name>" the pinned registry entry: the same
  // numbers the HarnessPin cases record through the direct functions.
  const auto spec = hw::ClusterSpec::thor(2, 4);
  EXPECT_EQ(measure_allgather(spec, subject_allgather("mha"), 65536),
            0x1.21cc1038e6285p-14);
  EXPECT_EQ(measure_alltoall(spec, subject_alltoall("mha"), 4096),
            0x1.246c2af33ad41p-15);
  EXPECT_EQ(measure_reduce_scatter(spec, subject_reduce_scatter("mha"),
                                   1u << 20),
            0x1.c56198ad76f7ap-13);
  EXPECT_EQ(measure_allreduce(spec, subject_allreduce("algo:rd"), 4096),
            measure_allreduce(spec, pinned_allreduce("rd"), 4096));
  EXPECT_EQ(measure_allgather(spec, subject_allgather("hpcx"), 4096),
            measure_allgather(spec, profiles::hpcx().allgather, 4096));
}

TEST(Subject, RejectsUnknownSubjects) {
  EXPECT_THROW(subject_allgather("nope"), std::invalid_argument);
  EXPECT_THROW(subject_allgather("algo:nope"), std::invalid_argument);
  // No comparator profiles exist for alltoall and reduce_scatter.
  EXPECT_THROW(subject_alltoall("hpcx"), std::invalid_argument);
  EXPECT_THROW(subject_reduce_scatter("mvapich"), std::invalid_argument);
  EXPECT_NO_THROW(subject_alltoall("algo:pairwise"));
}

TEST(Format, Sizes) {
  EXPECT_EQ(format_size(256), "256");
  EXPECT_EQ(format_size(1024), "1K");
  EXPECT_EQ(format_size(262144), "256K");
  EXPECT_EQ(format_size(4u << 20), "4M");
  EXPECT_EQ(format_size(1000), "1000");
}

TEST(Format, Microseconds) {
  EXPECT_EQ(format_us(1.5e-6), "1.50");
  EXPECT_EQ(format_us(250.04e-6), "250.0");
}

TEST(Format, Ratio) { EXPECT_EQ(format_ratio(1.42), "1.42x"); }

TEST(Format, SizeSweepDoubles) {
  const auto sweep = size_sweep(1024, 8192);
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.front(), 1024u);
  EXPECT_EQ(sweep.back(), 8192u);
}

TEST(TableOutput, PrintAndCsv) {
  Table t;
  t.title = "Demo";
  t.headers = {"size", "hpcx", "mha"};
  t.add_row({"1K", "10.0", "7.5"});
  t.add_row({"2K", "20.0", "11.0"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("== Demo =="), std::string::npos);
  EXPECT_NE(text.find("size"), std::string::npos);
  EXPECT_NE(text.find("7.5"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("size,hpcx,mha"), std::string::npos);
  EXPECT_NE(csv.str().find("2K,20.0,11.0"), std::string::npos);
}

}  // namespace
}  // namespace hmca::osu
