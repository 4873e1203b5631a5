// Figure 8: RD vs Ring in the inter-leader data-exchange phase of the
// hierarchical design, 16 and 32 nodes x 32 PPN.
// Expected shape: RD wins for small per-process messages (fewer startups),
// Ring wins for large ones (better overlap with the shm distribution); the
// crossover moves with node count.
// `--json` (osu::bench_main) emits the tables machine-readably.
#include <string>

#include "core/hierarchy.hpp"
#include "osu/bench_main.hpp"

using namespace hmca;

namespace {

// The cluster transport of the depth-2 spec pins the phase-2 exchange.
coll::AllgatherFn hier(core::LevelTransport cluster) {
  return [cluster](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                   std::size_t m, bool ip) {
    return core::allgather_hierarchy(
        c, r, s, rv, m, ip,
        core::HierarchySpec::mha(core::LevelTransport::kAuto, cluster));
  };
}

void run(osu::BenchContext& ctx, int nodes, int ppn) {
  osu::Table t;
  t.title = "Figure 8: RD vs Ring inter-leader exchange, " +
            std::to_string(nodes) + " nodes x " + std::to_string(ppn) +
            " PPN (latency us)";
  t.headers = {"size", "rd_us", "ring_us", "winner"};
  const auto spec = ctx.faulted(hw::ClusterSpec::thor(nodes, ppn));
  for (std::size_t sz : osu::size_sweep(64, 256 * 1024)) {
    const double rd =
        osu::measure_allgather(spec, hier(core::LevelTransport::kRd), sz);
    const double ring =
        osu::measure_allgather(spec, hier(core::LevelTransport::kRing), sz);
    t.add_row({osu::format_size(sz), osu::format_us(rd), osu::format_us(ring),
               rd < ring ? "RD" : "Ring"});
  }
  ctx.out.table(t);
}

}  // namespace

int main(int argc, char** argv) {
  return osu::bench_main(
      "fig08_rd_vs_ring", argc, argv, [](osu::BenchContext& ctx) {
        run(ctx, 16, 32);
        run(ctx, 32, 32);
        ctx.out.note(
            "shape check: RD wins the small sizes, Ring the large ones, "
            "with a crossover in between (Fig. 8a/8b).");
      });
}
