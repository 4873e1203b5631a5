// Topology construction surfaces: the fluent ClusterSpecBuilder (eager
// per-setter validation, total-preserving socket splits), the --topo
// key=value grammar (hw::apply_topo), and the block-distribution audit of
// the socket/HCA mapping helpers for the uneven cases ppn % sockets != 0
// and hcas % sockets != 0.
#include <gtest/gtest.h>

#include <string>

#include "hw/cluster.hpp"
#include "hw/spec.hpp"
#include "sim/engine.hpp"

namespace hmca::hw {
namespace {

// ---- ClusterSpecBuilder ----

TEST(ClusterSpecBuilderTest, SettersApplyAndValidateEagerly) {
  const auto spec = ClusterSpecBuilder(ClusterSpec::thor(2, 4))
                        .nodes(3)
                        .ppn(8)
                        .hcas(4)
                        .sockets(2)
                        .hca_bw(10e9)
                        .upi_bw(9e9)
                        .carry_data(false)
                        .build();
  EXPECT_EQ(spec.nodes, 3);
  EXPECT_EQ(spec.ppn, 8);
  EXPECT_EQ(spec.hcas_per_node, 4);
  EXPECT_EQ(spec.sockets_per_node, 2);
  EXPECT_EQ(spec.hca_bw, 10e9);
  EXPECT_EQ(spec.upi_bw, 9e9);
  EXPECT_FALSE(spec.carry_data);

  EXPECT_THROW(ClusterSpecBuilder{}.nodes(0), SpecError);
  EXPECT_THROW(ClusterSpecBuilder{}.ppn(-1), SpecError);
  EXPECT_THROW(ClusterSpecBuilder{}.hcas(0), SpecError);
  EXPECT_THROW(ClusterSpecBuilder{}.sockets(0), SpecError);
  EXPECT_THROW(ClusterSpecBuilder{}.hca_bw(0), SpecError);
  EXPECT_THROW(ClusterSpecBuilder{}.upi_bw(-1e9), SpecError);
}

TEST(ClusterSpecBuilderTest, SocketSplitPreservesNodeTotals) {
  // sockets(2) on flat thor must reproduce thor_numa exactly: per-socket
  // capacities are the node totals divided by the socket count.
  const auto flat = ClusterSpec::thor(4, 32);
  const auto split = ClusterSpecBuilder(flat).sockets(2).build();
  const auto numa = ClusterSpec::thor_numa(4, 32);
  EXPECT_EQ(split.sockets_per_node, numa.sockets_per_node);
  EXPECT_EQ(split.mem_bw, numa.mem_bw);
  EXPECT_EQ(split.copy_engine_bw, numa.copy_engine_bw);
  // And the round trip: re-flattening a numa base restores the totals.
  const auto back = ClusterSpecBuilder(numa).sockets(1).build();
  EXPECT_EQ(back.mem_bw, flat.mem_bw);
  EXPECT_EQ(back.copy_engine_bw, flat.copy_engine_bw);
}

TEST(ClusterSpecBuilderTest, BuildEnforcesCrossFieldRules) {
  // Every socket must host a rank; uneven ppn is fine.
  EXPECT_THROW(ClusterSpecBuilder(ClusterSpec::thor(2, 1)).sockets(2).build(),
               SpecError);
  EXPECT_NO_THROW(
      ClusterSpecBuilder(ClusterSpec::thor(2, 7)).sockets(2).build());
  EXPECT_THROW(ClusterSpecBuilder{}.sockets(9).ppn(16).build(), SpecError);
}

// ---- apply_topo grammar ----

TEST(ApplyTopoTest, EmptyReturnsBaseUnchanged) {
  const auto base = ClusterSpec::thor_numa(2, 8);
  const auto out = apply_topo(base, "");
  EXPECT_EQ(out.nodes, base.nodes);
  EXPECT_EQ(out.ppn, base.ppn);
  EXPECT_EQ(out.sockets_per_node, base.sockets_per_node);
  EXPECT_EQ(out.mem_bw, base.mem_bw);
}

TEST(ApplyTopoTest, AppliesEveryKnownKey) {
  const auto out = apply_topo(
      ClusterSpec::thor(2, 4),
      "nodes=8,ppn=16,hcas=4,sockets=2,hca_bw=25e9,upi_bw=9e9");
  EXPECT_EQ(out.nodes, 8);
  EXPECT_EQ(out.ppn, 16);
  EXPECT_EQ(out.hcas_per_node, 4);
  EXPECT_EQ(out.sockets_per_node, 2);
  EXPECT_EQ(out.hca_bw, 25e9);
  EXPECT_EQ(out.upi_bw, 9e9);
  // The socket split goes through the builder: totals preserved.
  EXPECT_EQ(out.mem_bw, ClusterSpec::thor(1, 1).mem_bw / 2);
}

TEST(ApplyTopoTest, RejectsMalformedInput) {
  const auto base = ClusterSpec::thor(2, 4);
  EXPECT_THROW(apply_topo(base, "gpus=4"), SpecError);       // unknown key
  EXPECT_THROW(apply_topo(base, "nodes"), SpecError);        // no '='
  EXPECT_THROW(apply_topo(base, "nodes="), SpecError);       // no value
  EXPECT_THROW(apply_topo(base, "=4"), SpecError);           // no key
  EXPECT_THROW(apply_topo(base, "nodes=zero"), SpecError);   // bad int
  EXPECT_THROW(apply_topo(base, "nodes=0"), SpecError);      // range
  EXPECT_THROW(apply_topo(base, "hca_bw=-1"), SpecError);    // bad double
  EXPECT_THROW(apply_topo(base, "ppn=1,sockets=2"), SpecError);  // cross-field
}

// Bandwidths must be finite and at least kMinTopoBandwidth: an infinite
// rail or one so slow that completions stop advancing virtual time would
// otherwise run (or hang) silently. The error names the key.
TEST(ApplyTopoTest, RejectsNonFiniteAndTinyBandwidths) {
  const auto base = ClusterSpec::thor(2, 4);
  for (const char* topo : {"hca_bw=inf", "hca_bw=1e400", "upi_bw=inf",
                           "hca_bw=nan", "hca_bw=1e-3", "upi_bw=1e-20",
                           "hca_bw=999999"}) {
    const std::string key = std::string(topo).substr(0, 6);
    try {
      apply_topo(base, topo);
      ADD_FAILURE() << topo << " accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("--topo " + key),
                std::string::npos)
          << e.what();
    }
  }
  const auto floor = apply_topo(base, "hca_bw=1e6,upi_bw=1e6");
  EXPECT_EQ(floor.hca_bw, kMinTopoBandwidth);
  EXPECT_EQ(floor.upi_bw, kMinTopoBandwidth);
}

// ---- Block-distribution audit (uneven ppn / hcas over sockets) ----

/// socket_first_local must be the exact inverse of socket_of_local:
/// contiguous spans, sizes differing by at most one, earlier sockets
/// larger, every local rank inside its socket's span.
void audit_rank_blocks(int ppn, int sockets) {
  SCOPED_TRACE("ppn=" + std::to_string(ppn) +
               " sockets=" + std::to_string(sockets));
  auto spec = ClusterSpecBuilder(ClusterSpec::thor(1, ppn))
                  .sockets(sockets)
                  .build();
  sim::Engine eng;
  Cluster cl(eng, spec);
  ASSERT_EQ(cl.socket_first_local(0), 0);
  ASSERT_EQ(cl.socket_first_local(sockets), ppn);
  const int large = (ppn + sockets - 1) / sockets;
  for (int s = 0; s < sockets; ++s) {
    const int first = cl.socket_first_local(s);
    const int size = cl.socket_size(s);
    ASSERT_GE(size, 1);
    ASSERT_TRUE(size == large || size == large - 1 || ppn % sockets == 0);
    ASSERT_EQ(first + size, cl.socket_first_local(s + 1));
    for (int l = first; l < first + size; ++l) {
      ASSERT_EQ(cl.socket_of_local(l), s) << "local " << l;
    }
  }
  // Earlier sockets never smaller than later ones.
  for (int s = 0; s + 1 < sockets; ++s) {
    ASSERT_GE(cl.socket_size(s), cl.socket_size(s + 1));
  }
}

TEST(SocketMappingTest, RankBlockDistribution) {
  audit_rank_blocks(8, 2);   // even
  audit_rank_blocks(7, 2);   // {4, 3}
  audit_rank_blocks(8, 3);   // {3, 3, 2}
  audit_rank_blocks(5, 4);   // {2, 1, 1, 1}
  audit_rank_blocks(3, 3);   // one rank per socket
}

TEST(SocketMappingTest, DocumentedUnevenExample) {
  // The ClusterSpec doc's worked example: L=7, S=2 -> {4, 3}.
  auto spec =
      ClusterSpecBuilder(ClusterSpec::thor(2, 7)).sockets(2).build();
  sim::Engine eng;
  Cluster cl(eng, spec);
  EXPECT_EQ(cl.socket_size(0), 4);
  EXPECT_EQ(cl.socket_size(1), 3);
  EXPECT_EQ(cl.socket_first_local(1), 4);
  EXPECT_EQ(cl.socket_of_local(3), 0);
  EXPECT_EQ(cl.socket_of_local(4), 1);
  // Global-rank view on node 1.
  EXPECT_EQ(cl.socket_of(7 + 3), 0);
  EXPECT_EQ(cl.socket_of(7 + 4), 1);
}

/// hca_socket and socket_hca_first/count share the rank helpers' block
/// distribution; hcas need not divide sockets and a socket may own zero
/// adapters.
void audit_hca_blocks(int hcas, int sockets, int ppn) {
  SCOPED_TRACE("hcas=" + std::to_string(hcas) +
               " sockets=" + std::to_string(sockets));
  auto spec = ClusterSpecBuilder(ClusterSpec::multi_rail(1, ppn, hcas))
                  .sockets(sockets)
                  .build();
  sim::Engine eng;
  Cluster cl(eng, spec);
  ASSERT_EQ(cl.socket_hca_first(0), 0);
  ASSERT_EQ(cl.socket_hca_first(sockets), hcas);
  int covered = 0;
  for (int s = 0; s < sockets; ++s) {
    const int first = cl.socket_hca_first(s);
    const int count = cl.socket_hca_count(s);
    ASSERT_GE(count, 0);
    ASSERT_EQ(first + count, cl.socket_hca_first(s + 1));
    for (int h = first; h < first + count; ++h) {
      ASSERT_EQ(cl.hca_socket(h), s) << "hca " << h;
    }
    covered += count;
  }
  ASSERT_EQ(covered, hcas);
}

TEST(SocketMappingTest, HcaBlockDistribution) {
  audit_hca_blocks(2, 2, 8);  // one per socket
  audit_hca_blocks(3, 2, 8);  // {2, 1}: doc's worked example
  audit_hca_blocks(8, 2, 8);  // ThetaGPU-like
  audit_hca_blocks(1, 2, 8);  // socket 1 owns no adapter
  audit_hca_blocks(2, 4, 8);  // fewer hcas than sockets
}

TEST(SocketMappingTest, DocumentedHcaExample) {
  // H=3, S=2: adapters {0, 1} on socket 0, {2} on socket 1.
  auto spec = ClusterSpecBuilder(ClusterSpec::multi_rail(1, 8, 3))
                  .sockets(2)
                  .build();
  sim::Engine eng;
  Cluster cl(eng, spec);
  EXPECT_EQ(cl.hca_socket(0), 0);
  EXPECT_EQ(cl.hca_socket(1), 0);
  EXPECT_EQ(cl.hca_socket(2), 1);
  EXPECT_EQ(cl.socket_hca_count(0), 2);
  EXPECT_EQ(cl.socket_hca_count(1), 1);
}

}  // namespace
}  // namespace hmca::hw
