// Figure 10: validation of the MHA-inter cost model (Eqs. 6-7) against the
// measured (simulated) latency, 8 nodes x 32 PPN, 4 KB - 1 MB per process.
// The predicted value is the tuned min of the RD and Ring models, exactly
// as the measured latency reflects the tuned algorithm choice.
// `--json` (osu::bench_main) emits the table machine-readably.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/hierarchy.hpp"
#include "model/cost.hpp"
#include "osu/bench_main.hpp"

using namespace hmca;

int main(int argc, char** argv) {
  return osu::bench_main(
      "fig10_model_inter", argc, argv, [](osu::BenchContext& ctx) {
        const int nodes = 8, ppn = 32;
        const auto spec = ctx.faulted(hw::ClusterSpec::thor(nodes, ppn));
        const auto params = model::ModelParams::measure(spec);

        osu::Table t;
        t.title = "Figure 10: MHA-inter model validation, 8 nodes x 32 PPN";
        t.headers = {"size", "actual_us", "predicted_us", "error"};
        for (std::size_t sz : osu::size_sweep(4096, 1u << 20)) {
          const double actual = osu::measure_allgather(
              spec,
              [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                 std::size_t m, bool ip) {
                return core::allgather_hierarchy(c, r, s, rv, m, ip,
                                                 core::HierarchySpec::mha());
              },
              sz);
          const double predicted =
              std::min(model::mha_inter_time_rd(params, nodes, ppn,
                                                static_cast<double>(sz)),
                       model::mha_inter_time_ring(params, nodes, ppn,
                                                  static_cast<double>(sz)));
          char pct[16];
          std::snprintf(pct, sizeof pct, "%.0f%%",
                        std::abs(predicted - actual) / actual * 100);
          t.add_row({osu::format_size(sz), osu::format_us(actual),
                     osu::format_us(predicted), pct});
        }
        ctx.out.table(t);
        ctx.out.note(
            "shape check: predicted and actual latencies are comparable and "
            "follow the same trend (paper: 'comparable').");
      });
}
