// Example: TAU-style timeline tracing (the tooling behind the paper's
// Fig. 2 and Fig. 6). Renders a flat Ring Allgather next to the MHA
// hierarchical design on the same topology, making the overlap visible.
//
//   $ ./timeline_demo [msg_bytes]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "coll/allgather.hpp"
#include "core/hierarchy.hpp"
#include "obs/sink.hpp"
#include "osu/harness.hpp"
#include "trace/trace.hpp"

using namespace hmca;

int main(int argc, char** argv) {
  const std::size_t msg = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : std::size_t{1u << 20};
  const auto spec = hw::ClusterSpec::thor(2, 2);

  {
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    const double t = osu::measure_allgather(
        spec,
        [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
           bool ip) { return coll::allgather_ring(c, r, s, rv, m, ip); },
        msg, sink);
    std::printf("flat Ring Allgather, 2 nodes x 2 PPN, %zu B/process: %.1f us\n",
                msg, t * 1e6);
    tracer.render_ascii(std::cout, 100);
  }

  std::printf("\n");

  {
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    const double t = osu::measure_allgather(
        spec,
        [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
           bool ip) {
          return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                           core::HierarchySpec::mha());
        },
        msg, sink);
    std::printf("MHA-inter, same topology: %.1f us\n", t * 1e6);
    tracer.render_ascii(std::cout, 100);
    std::printf("\nleader NIC time overlapping member copy-outs: %.1f us\n",
                tracer.overlap_time(0, trace::Kind::kNicXfer, 1,
                                    trace::Kind::kCopyOut) *
                    1e6);
  }
  return 0;
}
