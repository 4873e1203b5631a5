// Figure 2: communication timeline of a *flat* Ring Allgather on 2 nodes x
// 2 PPN (TAU-style). The rendering shows the paper's bottleneck: ring steps
// that cross the intra-node link serialize behind the slower CMA copies,
// stalling the HCAs. `--json` (osu::bench_main) emits the busy-time table
// machine-readably (the ASCII timeline stays human-only).
#include <iostream>

#include "coll/allgather.hpp"
#include "obs/sink.hpp"
#include "osu/bench_main.hpp"
#include "trace/trace.hpp"

using namespace hmca;

int main(int argc, char** argv) {
  return osu::bench_main(
      "fig02_timeline", argc, argv, [](osu::BenchContext& ctx) {
        trace::Tracer tracer;
        obs::CollectSink sink(&tracer);
        const auto spec = ctx.faulted(hw::ClusterSpec::thor(2, 2));
        const double t = osu::measure_allgather(
            spec,
            [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
               std::size_t m,
               bool ip) { return coll::allgather_ring(c, r, s, rv, m, ip); },
            1u << 20, sink);

        ctx.out.note(
            "Figure 2: flat Ring Allgather, 2 nodes x 2 PPN, 1 MB/process");
        ctx.out.note("total latency: " + osu::format_us(t) + " us");
        if (!ctx.out.json()) {
          std::cout << '\n';
          tracer.render_ascii(std::cout, 110);
          std::cout << '\n';
        }

        // Quantify the bottleneck: time each rank spends in CMA copies vs
        // NIC.
        osu::Table busy;
        busy.title = "per-rank busy time (us)";
        busy.headers = {"rank", "cma", "nic", "wait"};
        for (int r = 0; r < 4; ++r) {
          busy.add_row(
              {std::to_string(r),
               osu::format_us(tracer.busy_time(r, trace::Kind::kCmaCopy)),
               osu::format_us(tracer.busy_time(r, trace::Kind::kNicXfer)),
               osu::format_us(tracer.busy_time(r, trace::Kind::kWait))});
        }
        ctx.out.table(busy);
        ctx.out.note(
            "shape check: every rank shows substantial wait stalls behind "
            "the intra-node hops (the Fig. 2 bottleneck).");
      });
}
