// Ablation: phase-1 aggregation mode — MHA-intra (this paper) vs plain CMA
// direct spread (d = 0) vs the double-copy shm gather (Mamidala-style).
#include <iostream>

#include "core/hierarchy.hpp"
#include "osu/harness.hpp"

using namespace hmca;

namespace {

// The node transport of the depth-2 spec picks the phase-1 mode.
coll::AllgatherFn hier(core::LevelTransport node) {
  return [node](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                std::size_t m, bool ip) {
    return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                     core::HierarchySpec::mha(node));
  };
}

}  // namespace

int main() {
  const auto spec = hw::ClusterSpec::thor(4, 8);
  osu::Table t;
  t.title = "Ablation: phase-1 mode, 4 nodes x 8 PPN (latency us)";
  t.headers = {"size", "shm_gather", "cma_direct", "mha_intra",
               "mha_vs_shm", "mha_vs_cma"};
  for (std::size_t sz : osu::size_sweep(16 * 1024, 4u << 20)) {
    const double shm =
        osu::measure_allgather(spec, hier(core::LevelTransport::kShm), sz);
    const double cma =
        osu::measure_allgather(spec, hier(core::LevelTransport::kCma), sz);
    const double mha = osu::measure_allgather(
        spec, hier(core::LevelTransport::kMhaIntra), sz);
    t.add_row({osu::format_size(sz), osu::format_us(shm), osu::format_us(cma),
               osu::format_us(mha), osu::format_ratio(shm / mha),
               osu::format_ratio(cma / mha)});
  }
  t.print(std::cout);
  std::cout << "\nshape check: MHA-intra <= CMA direct <= shm gather; the "
               "HCA offload pays off at the larger sizes.\n";
  return 0;
}
