// Ablation: phase-2/3 overlap on vs off (the core design choice of
// Sec. 3.2, Fig. 6). Strict phase separation is what Kandalla-style
// multi-leader designs do; the overlap is where MHA-inter's win comes from.
#include <iostream>

#include "core/hierarchy.hpp"
#include "osu/harness.hpp"

using namespace hmca;

namespace {

coll::AllgatherFn hier(bool overlap) {
  return [overlap](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                   std::size_t m, bool ip) {
    return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                     core::HierarchySpec::mha(), overlap);
  };
}

}  // namespace

int main() {
  for (int nodes : {8, 16}) {
    const auto spec = hw::ClusterSpec::thor(nodes, 16);
    osu::Table t;
    t.title = "Ablation: overlap of phases 2+3, " + std::to_string(nodes) +
              " nodes x 16 PPN (latency us)";
    t.headers = {"size", "no_overlap", "overlap", "benefit"};
    for (std::size_t sz : osu::size_sweep(1024, 1u << 20)) {
      const double off = osu::measure_allgather(spec, hier(false), sz);
      const double on = osu::measure_allgather(spec, hier(true), sz);
      t.add_row({osu::format_size(sz), osu::format_us(off), osu::format_us(on),
                 osu::format_ratio(off / on)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "shape check: overlap never hurts and pays most where the "
               "shm distribution time is comparable to the wire time.\n";
  return 0;
}
