// Example: irregular (variable-block) Allgatherv — the shape real
// applications produce (graph partitions, particle migration, BPMF factor
// exchanges). Verifies the distributed result with real data, then prints
// the latency of the flat chunked ring and of the hierarchical MHA variant
// on a skewed layout, with their ratio. Which one is faster depends on the
// layout and the topology; the example makes no claim either way.
//
//   $ ./irregular_allgatherv [nodes] [ppn]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "coll/allgatherv.hpp"
#include "core/mha_allgatherv.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

using namespace hmca;

namespace {

sim::Task<void> rank_program(mpi::Comm& comm, int r, hw::BufView send,
                             hw::BufView recv, const coll::VarLayout& layout,
                             bool use_mha) {
  if (use_mha) {
    co_await core::allgatherv_mha(comm, r, send, recv, layout);
  } else {
    co_await coll::allgatherv_ring(comm, r, send, recv, layout);
  }
}

// Zipf-ish skew: a few ranks contribute most of the bytes.
std::vector<std::size_t> skewed_counts(int p) {
  std::vector<std::size_t> counts;
  for (int r = 0; r < p; ++r) {
    counts.push_back(r % 7 == 0 ? (1u << 18) : (r % 3 == 0 ? 0 : 4096u));
  }
  return counts;
}

double run(const hw::ClusterSpec& base, const coll::VarLayout& layout,
           bool use_mha, bool verify) {
  auto spec = base;
  spec.carry_data = verify;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto s = hw::Buffer::make(layout.count(r), verify);
    if (verify && layout.count(r) > 0) {
      std::memset(s.bytes(), 'a' + (r % 26), layout.count(r));
    }
    sends.push_back(std::move(s));
    recvs.push_back(hw::Buffer::make(layout.total, verify));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(rank_program(comm, r, sends[static_cast<std::size_t>(r)].view(),
                           recvs[static_cast<std::size_t>(r)].view(), layout,
                           use_mha));
  }
  eng.run();
  if (verify) {
    for (int r = 0; r < p; ++r) {
      for (int src = 0; src < p; ++src) {
        for (std::size_t i = 0; i < layout.count(src); ++i) {
          if (recvs[static_cast<std::size_t>(r)]
                  .as<char>()[layout.offset(src) + i] != 'a' + (src % 26)) {
            std::fprintf(stderr, "VERIFICATION FAILED rank %d block %d\n", r,
                         src);
            std::exit(1);
          }
        }
      }
    }
  }
  return eng.now();
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const int ppn = argc > 2 ? std::atoi(argv[2]) : 8;
  const auto spec = hw::ClusterSpec::thor(nodes, ppn);
  const auto layout = coll::VarLayout::from_counts(skewed_counts(nodes * ppn));

  std::printf("Allgatherv on %d x %d ranks, %zu total bytes, skewed layout\n",
              nodes, ppn, layout.total);
  run(spec, layout, /*use_mha=*/true, /*verify=*/true);
  std::printf("data verification: PASSED\n\n");

  const double flat = run(spec, layout, false, false);
  const double mha = run(spec, layout, true, false);
  std::printf("flat ring allgatherv: %10.1f us\n", flat * 1e6);
  std::printf("MHA   allgatherv:     %10.1f us  (%.2fx)\n", mha * 1e6,
              flat / mha);
  return 0;
}
