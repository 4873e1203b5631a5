// Randomized differential conformance suite (tests/testing/conformance.hpp).
//
// Every registry algorithm runs on sampled shapes / sizes under every fault
// category and is byte-compared against the naive gather+bcast reference.
// Seeds: HMCA_CONFORMANCE_SEED or a fixed default; every failure prints the
// replay command.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "coll/allgatherv.hpp"
#include "coll/graph.hpp"
#include "core/mha_allgatherv.hpp"
#include "core/selector.hpp"
#include "profiles/profiles.hpp"
#include "sim/fault.hpp"
#include "testing/conformance.hpp"

namespace hmca {
namespace {

using testing::conf::RankBytes;
using testing::conf::Trial;
using Category = sim::FaultPlan::Category;

class Conformance : public ::testing::Test {
 protected:
  void SetUp() override { core::register_core_algorithms(); }
};

// Message-size menu: zero bytes, odd non-power-of-two sizes, an eager-sized,
// a rendezvous-sized and a stripe-sized message.
constexpr std::size_t kMsgSizes[] = {0, 1, 3, 100, 1000, 4096, 20000, 65536};
constexpr int kTrialsPerCategory = 4;

std::uint64_t category_salt(Category c) {
  return 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(c) + 1);
}

/// Independent RNG stream per sub-suite, all derived from the one seed.
std::uint64_t rng_seed_for(const char* what, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char* p = what; *p; ++p) {
    h = h * 131 + static_cast<unsigned char>(*p);
  }
  return h;
}

/// Sample one trial of the given fault category. Shapes stay small (<= 16
/// ranks) so a full category sweep finishes in seconds.
Trial sample_trial(sim::Rng& rng, std::uint64_t seed, int index, Category cat) {
  Trial t;
  t.seed = seed;
  t.index = index;
  t.nodes = static_cast<int>(rng.uniform_int(1, 4));
  t.ppn = static_cast<int>(rng.uniform_int(1, 4));
  t.hcas = static_cast<int>(rng.uniform_int(1, 3));
  // Sockets need not divide ppn: imbalanced spans (ppn=3, sockets=2) are
  // deliberately in the pool so the n-level hierarchy's uneven block
  // distribution is conformance-checked under every fault category.
  t.sockets = static_cast<int>(rng.uniform_int(1, std::min(t.ppn, 3)));
  t.msg = kMsgSizes[rng.next_below(std::size(kMsgSizes))];
  t.in_place = rng.next_below(2) == 0;
  t.fault_plan =
      sim::FaultPlan::random(rng, t.nodes, t.hcas, cat).to_string();
  return t;
}

/// Run every applicable registry allgather on the trial and compare against
/// the shared reference result.
void check_allgather_trial(const Trial& t) {
  SCOPED_TRACE(t.context());
  const RankBytes want = testing::conf::reference_allgather(t);
  for (const auto& algo : coll::Registry::instance().allgather.entries()) {
    if (algo.applies && !algo.applies(testing::conf::shape_of(t), t.msg)) {
      continue;
    }
    const RankBytes got = testing::conf::run_allgather(algo.fn, t);
    EXPECT_EQ(testing::conf::diff_results(got, want), "")
        << "allgather '" << algo.name << "' diverged from the reference\n"
        << testing::conf::failure_stats(algo.fn, t);
  }
}

void run_category(Category cat) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(seed ^ category_salt(cat));
  for (int i = 0; i < kTrialsPerCategory; ++i) {
    check_allgather_trial(sample_trial(rng, seed, i, cat));
  }
}

TEST_F(Conformance, AllgatherHealthy) { run_category(Category::kNone); }
TEST_F(Conformance, AllgatherUnderKills) { run_category(Category::kKill); }
TEST_F(Conformance, AllgatherUnderDegrades) { run_category(Category::kDegrade); }
TEST_F(Conformance, AllgatherUnderTransients) {
  run_category(Category::kTransient);
}
TEST_F(Conformance, AllgatherUnderMixedFaults) {
  run_category(Category::kMixed);
}

// ---- Allreduce: exact arithmetic in every dtype, all fault categories ----

TEST_F(Conformance, AllreduceAllDtypes) {
  const std::uint64_t seed = testing::conf::suite_seed();
  const mpi::Dtype dtypes[] = {mpi::Dtype::kInt32, mpi::Dtype::kInt64,
                               mpi::Dtype::kFloat, mpi::Dtype::kDouble};
  const mpi::ReduceOp ops[] = {mpi::ReduceOp::kSum, mpi::ReduceOp::kProd,
                               mpi::ReduceOp::kMax, mpi::ReduceOp::kMin};
  const std::size_t counts[] = {1, 5, 96, 1000};
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  sim::Rng rng(seed ^ 0xa11dedu);
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    const mpi::Dtype dtype =
        dtypes[rng.next_below(std::size(dtypes))];
    const mpi::ReduceOp op = ops[rng.next_below(std::size(ops))];
    const std::size_t count = counts[rng.next_below(std::size(counts))];
    SCOPED_TRACE(t.context());
    SCOPED_TRACE("dtype=" + std::to_string(static_cast<int>(dtype)) +
                 " op=" + std::to_string(static_cast<int>(op)) +
                 " count=" + std::to_string(count));
    for (const auto& algo : coll::Registry::instance().allreduce.entries()) {
      if (algo.applies && !algo.applies(testing::conf::shape_of(t), count,
                                        mpi::dtype_size(dtype))) {
        continue;
      }
      const RankBytes got =
          testing::conf::run_allreduce(algo.fn, t, count, dtype, op);
      for (int r = 0; r < t.procs(); ++r) {
        const auto& bytes = got[static_cast<std::size_t>(r)];
        for (std::size_t e = 0; e < count; ++e) {
          const std::int64_t want =
              testing::conf::reduce_expected(t.procs(), e, op);
          std::int64_t have = 0;
          switch (dtype) {
            case mpi::Dtype::kByte:
              have = std::to_integer<std::int64_t>(bytes[e]);
              break;
            case mpi::Dtype::kInt32:
              have = *reinterpret_cast<const std::int32_t*>(&bytes[e * 4]);
              break;
            case mpi::Dtype::kInt64:
              have = *reinterpret_cast<const std::int64_t*>(&bytes[e * 8]);
              break;
            case mpi::Dtype::kFloat:
              have = static_cast<std::int64_t>(
                  *reinterpret_cast<const float*>(&bytes[e * 4]));
              break;
            case mpi::Dtype::kDouble:
              have = static_cast<std::int64_t>(
                  *reinterpret_cast<const double*>(&bytes[e * 8]));
              break;
          }
          ASSERT_EQ(have, want)
              << "allreduce '" << algo.name << "' rank " << r << " elem " << e;
        }
      }
    }
  }
}

// ---- Bcast / Allgatherv under faults: expected-bytes checks ----

TEST_F(Conformance, BcastAllCategories) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("bcast", seed));
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    SCOPED_TRACE(t.context());
    for (const auto& algo : coll::Registry::instance().bcast.entries()) {
      if (algo.applies && !algo.applies(testing::conf::shape_of(t), t.msg)) {
        continue;
      }
      const RankBytes got = testing::conf::run_bcast(algo.fn, t);
      for (int r = 0; r < t.procs(); ++r) {
        const auto& bytes = got[static_cast<std::size_t>(r)];
        std::size_t bad = t.msg;
        for (std::size_t i = 0; i < t.msg; ++i) {
          if (bytes[i] != testing::conf::content_byte(0, i)) {
            bad = i;
            break;
          }
        }
        ASSERT_EQ(bad, t.msg)
            << "bcast '" << algo.name << "' rank " << r << " first bad byte";
      }
    }
  }
}

TEST_F(Conformance, AllgathervAllCategories) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("allgatherv", seed));
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    SCOPED_TRACE(t.context());
    // Irregular counts including empty contributions and one large block.
    std::vector<std::size_t> counts(static_cast<std::size_t>(t.procs()));
    for (auto& c : counts) {
      const std::size_t menu[] = {0, 1, 17, 300, 5000, 40000};
      c = menu[rng.next_below(std::size(menu))];
    }
    const auto layout = coll::VarLayout::from_counts(counts);
    const auto want = testing::conf::allgatherv_expected(layout);
    for (const auto& algo : coll::Registry::instance().allgatherv.entries()) {
      if (algo.applies &&
          !algo.applies(testing::conf::shape_of(t), layout.total)) {
        continue;
      }
      const RankBytes got =
          testing::conf::run_allgatherv(algo.fn, t, counts);
      for (int r = 0; r < t.procs(); ++r) {
        ASSERT_EQ(got[static_cast<std::size_t>(r)], want)
            << "allgatherv '" << algo.name << "' rank " << r;
      }
    }
  }
}

// ---- Identity: every fixed-size allgather that has a v-variant is that
// variant on a uniform layout, bit for bit in latency and engine events ----

struct Timing {
  double latency = 0;
  std::uint64_t events = 0;
};

using RankCall = std::function<sim::Task<void>(mpi::Comm&, int, hw::BufView,
                                               hw::BufView)>;

sim::Task<void> timed_rank(mpi::Comm& comm, const RankCall& call, int r,
                           hw::BufView send, hw::BufView recv) {
  co_await call(comm, r, send, recv);
}

/// Runs `call` on a healthy world of the trial's shape with phantom
/// buffers (timing only) and returns the completion time and event count.
Timing time_allgather(const Trial& t, const RankCall& call) {
  auto spec = testing::conf::spec_of(t);
  spec.carry_data = false;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < t.procs(); ++r) {
    sends.push_back(hw::Buffer::phantom(t.in_place ? 0 : t.msg));
    recvs.push_back(hw::Buffer::phantom(
        t.msg * static_cast<std::size_t>(t.procs())));
  }
  for (int r = 0; r < t.procs(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    eng.spawn(timed_rank(comm, call, r, sends[i].view(), recvs[i].view()));
  }
  eng.run();
  return {eng.now(), eng.events_dispatched()};
}

void check_uniform_identity(const Trial& t) {
  SCOPED_TRACE(t.context());
  const auto layout = coll::VarLayout::uniform(t.procs(), t.msg);
  const std::size_t msg = t.msg;
  const bool ip = t.in_place;
  auto fixed = [&](const coll::AllgatherFn& fn) -> RankCall {
    return [&fn, msg, ip](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv) {
      return fn(c, r, s, rv, msg, ip);
    };
  };
  auto vvar = [&](const coll::AllgathervFn& fn) -> RankCall {
    return [&fn, &layout, ip](mpi::Comm& c, int r, hw::BufView s,
                              hw::BufView rv) {
      return fn(c, r, s, rv, layout, ip);
    };
  };
  const coll::AllgatherFn ring = coll::allgather_ring;
  const coll::AllgatherFn direct = coll::allgather_direct;
  const coll::AllgathervFn ring_v = coll::allgatherv_ring;
  const coll::AllgathervFn direct_v = coll::allgatherv_direct;
  const coll::AllgathervFn mha_v = core::allgatherv_mha;
  const struct {
    const char* name;
    RankCall fixed;
    RankCall v;
  } pairs[] = {
      {"ring", fixed(ring), vvar(ring_v)},
      {"direct", fixed(direct), vvar(direct_v)},
      {"mha_inter_ring",
       fixed(coll::Registry::instance().allgather.get("mha_inter_ring").fn),
       vvar(mha_v)},
  };
  for (const auto& pair : pairs) {
    const Timing want = time_allgather(t, pair.fixed);
    const Timing got = time_allgather(t, pair.v);
    EXPECT_EQ(got.latency, want.latency)
        << pair.name << ": v-variant latency " << std::hexfloat << got.latency
        << " vs " << want.latency;
    EXPECT_EQ(got.events, want.events) << pair.name << ": v-variant events";
  }
}

TEST_F(Conformance, AllgathervUniformLayoutIsAllgather) {
  const std::uint64_t seed = testing::conf::suite_seed();
  // The shapes every seed covers: ppn 1, one node, in place, a one-byte
  // block and a block that splits into several pipeline chunks.
  struct Shape {
    int nodes, ppn;
    std::size_t msg;
    bool in_place;
  };
  const Shape fixed_shapes[] = {
      {3, 1, 4096, false}, {1, 4, 65536, false}, {2, 3, 1000, true},
      {2, 2, 1, false},    {3, 4, 300000, false}, {4, 2, 300000, true},
      {1, 1, 1, false},    {4, 1, 1, true},
  };
  int index = 0;
  for (const Shape& sh : fixed_shapes) {
    Trial t;
    t.seed = seed;
    t.index = index++;
    t.nodes = sh.nodes;
    t.ppn = sh.ppn;
    t.hcas = 2;
    t.msg = sh.msg;
    t.in_place = sh.in_place;
    check_uniform_identity(t);
  }
  // Seeded random shapes on top.
  sim::Rng rng(rng_seed_for("uniform_identity", seed));
  const std::size_t msgs[] = {1, 3, 100, 1000, 4096, 20000, 65536, 300000};
  for (int i = 0; i < 12; ++i) {
    Trial t = sample_trial(rng, seed, index++, Category::kNone);
    t.msg = msgs[rng.next_below(std::size(msgs))];
    check_uniform_identity(t);
  }
}

// ---- Alltoall / Alltoallv / Reduce-scatter / composed allreduce: the
// compositional planner's collectives under every fault category ----

TEST_F(Conformance, AlltoallAllCategories) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("alltoall", seed));
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  // Per-pair blocks stay modest: the exchange moves p^2 of them.
  const std::size_t msgs[] = {0, 1, 100, 1000, 4096};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    const std::size_t msg = msgs[rng.next_below(std::size(msgs))];
    SCOPED_TRACE(t.context());
    SCOPED_TRACE("msg=" + std::to_string(msg));
    const RankBytes want = testing::conf::alltoall_expected(t.procs(), msg);
    for (const auto& algo : coll::Registry::instance().alltoall.entries()) {
      if (algo.applies && !algo.applies(testing::conf::shape_of(t), msg)) {
        continue;
      }
      const RankBytes got = testing::conf::run_alltoall(algo.fn, t, msg);
      EXPECT_EQ(testing::conf::diff_results(got, want), "")
          << "alltoall '" << algo.name << "' diverged from the reference";
    }
  }
}

TEST_F(Conformance, AlltoallvAllCategoriesUnevenCounts) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("alltoallv", seed));
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    SCOPED_TRACE(t.context());
    const int p = t.procs();
    // Irregular pairwise matrix: empty blocks and one rendezvous-sized
    // outlier are both in the menu, so uneven v-layouts are the norm.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p * p));
    for (auto& c : counts) {
      const std::size_t menu[] = {0, 1, 17, 300, 2000, 20000};
      c = menu[rng.next_below(std::size(menu))];
    }
    const RankBytes want = testing::conf::alltoallv_expected(p, counts);
    const auto layout = coll::AlltoallvLayout::from_counts(p, counts);
    for (const auto& algo : coll::Registry::instance().alltoallv.entries()) {
      if (algo.applies &&
          !algo.applies(testing::conf::shape_of(t), layout.total())) {
        continue;
      }
      const RankBytes got = testing::conf::run_alltoallv(algo.fn, t, counts);
      EXPECT_EQ(testing::conf::diff_results(got, want), "")
          << "alltoallv '" << algo.name << "' diverged from the reference";
    }
  }
}

TEST_F(Conformance, ReduceScatterAllCategories) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("reduce_scatter", seed));
  const mpi::Dtype dtypes[] = {mpi::Dtype::kInt32, mpi::Dtype::kInt64,
                               mpi::Dtype::kFloat, mpi::Dtype::kDouble};
  const mpi::ReduceOp ops[] = {mpi::ReduceOp::kSum, mpi::ReduceOp::kProd,
                               mpi::ReduceOp::kMax, mpi::ReduceOp::kMin};
  // Indivisible counts are deliberately in the menu: the ring must handle
  // uneven tails (the rh predicate filters itself out).
  const std::size_t counts[] = {1, 7, 96, 1000, 16384};
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    const mpi::Dtype dtype = dtypes[rng.next_below(std::size(dtypes))];
    const mpi::ReduceOp op = ops[rng.next_below(std::size(ops))];
    const std::size_t count = counts[rng.next_below(std::size(counts))];
    SCOPED_TRACE(t.context());
    SCOPED_TRACE("dtype=" + std::to_string(static_cast<int>(dtype)) +
                 " op=" + std::to_string(static_cast<int>(op)) +
                 " count=" + std::to_string(count));
    const int p = t.procs();
    const auto& table = coll::Registry::instance().reduce_scatter;
    for (const auto& algo : table.entries()) {
      if (algo.applies && !algo.applies(testing::conf::shape_of(t), count,
                                        mpi::dtype_size(dtype))) {
        continue;
      }
      const RankBytes got =
          testing::conf::run_reduce_scatter(algo.fn, t, count, dtype, op);
      for (int r = 0; r < p; ++r) {
        const auto [off, len] = coll::chunk_range(count, p, r);
        for (std::size_t e = off; e < off + len; ++e) {
          ASSERT_EQ(testing::conf::elem_value(
                        got[static_cast<std::size_t>(r)], e, dtype),
                    testing::conf::reduce_expected(p, e, op))
              << "reduce_scatter '" << algo.name << "' rank " << r
              << " owned elem " << e;
        }
      }
    }
  }
}

// The composed allreduce (registry "rs_ag": planner reduce-up +
// reduce-scatter/allgather across leaders + multicast-down) is also swept
// by AllreduceAllDtypes with every other allreduce; this pins it explicitly
// across every fault category so a registry reshuffle can't silently drop
// its coverage.
TEST_F(Conformance, ComposedAllreduceAllCategories) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("rs_ag", seed));
  const auto& algo = coll::Registry::instance().allreduce.get("rs_ag");
  const Category cats[] = {Category::kNone, Category::kKill,
                           Category::kDegrade, Category::kTransient,
                           Category::kMixed};
  const std::size_t counts[] = {1, 5, 96, 1000};
  int index = 0;
  for (const Category cat : cats) {
    Trial t = sample_trial(rng, seed, index++, cat);
    const std::size_t count = counts[rng.next_below(std::size(counts))];
    SCOPED_TRACE(t.context());
    SCOPED_TRACE("count=" + std::to_string(count));
    if (algo.applies && !algo.applies(testing::conf::shape_of(t), count,
                                      mpi::dtype_size(mpi::Dtype::kInt64))) {
      continue;
    }
    const RankBytes got = testing::conf::run_allreduce(
        algo.fn, t, count, mpi::Dtype::kInt64, mpi::ReduceOp::kSum);
    for (int r = 0; r < t.procs(); ++r) {
      for (std::size_t e = 0; e < count; ++e) {
        ASSERT_EQ(testing::conf::elem_value(got[static_cast<std::size_t>(r)],
                                            e, mpi::Dtype::kInt64),
                  testing::conf::reduce_expected(t.procs(), e,
                                                 mpi::ReduceOp::kSum))
            << "rs_ag rank " << r << " elem " << e;
      }
    }
  }
}

// ---- Property: any kill plan leaving >= 1 healthy rail per node keeps the
// MHA allgather byte-identical to the fault-free run ----

TEST_F(Conformance, SurvivableKillPlansPreserveOutput) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("property", seed));
  for (int i = 0; i < 6; ++i) {
    Trial t = sample_trial(rng, seed, i, Category::kKill);
    t.hcas = static_cast<int>(rng.uniform_int(2, 3));  // room to lose rails
    t.fault_plan =
        sim::FaultPlan::random(rng, t.nodes, t.hcas, Category::kKill)
            .to_string();
    SCOPED_TRACE(t.context());

    Trial healthy = t;
    healthy.fault_plan.clear();
    const RankBytes want =
        testing::conf::run_allgather(profiles::mha().allgather, healthy);
    const RankBytes got =
        testing::conf::run_allgather(profiles::mha().allgather, t);
    EXPECT_EQ(testing::conf::diff_results(got, want), "")
        << "MHA output changed under a survivable kill plan\n"
        << testing::conf::failure_stats(profiles::mha().allgather, t);
  }
}

// ---- Acceptance: kill one of two HCAs mid-run; every registered allgather
// still completes correctly ----

TEST_F(Conformance, KillOneOfTwoHcasMidRun) {
  Trial t;
  t.seed = testing::conf::suite_seed();
  t.nodes = 2;
  t.ppn = 4;
  t.hcas = 2;
  t.msg = 65536;  // big enough that the kill lands mid-collective
  t.fault_plan = "kill:node=*,hca=1,t=2e-5";
  check_allgather_trial(t);
}

// ---- Dataflow acceptance: kill / flake a rail mid-pipeline while the
// transfers are split into many chunk tasks, so the executor's per-task
// retry and the net layer's restriping both get exercised ----

class ChunkOverrideGuard {
 public:
  explicit ChunkOverrideGuard(long long bytes) {
    coll::set_chunk_bytes_override(bytes);
  }
  ~ChunkOverrideGuard() { coll::set_chunk_bytes_override(-1); }
};

TEST_F(Conformance, KillMidPipelineWithChunkedTasks) {
  ChunkOverrideGuard chunks(8192);  // 65536 bytes -> 8 chunk tasks per hop
  Trial t;
  t.seed = testing::conf::suite_seed();
  t.nodes = 2;
  t.ppn = 4;
  t.hcas = 2;
  t.msg = 65536;
  t.fault_plan = "kill:node=*,hca=1,t=2e-5";  // lands mid-pipeline
  check_allgather_trial(t);
}

TEST_F(Conformance, FlakyRailRetriesChunkTasks) {
  ChunkOverrideGuard chunks(4096);
  Trial t;
  t.seed = testing::conf::suite_seed();
  t.nodes = 2;
  t.ppn = 2;
  t.hcas = 2;
  t.msg = 40000;
  t.fault_plan = "flaky:rate=0.25,burst=2,seed=7";
  check_allgather_trial(t);
}

TEST_F(Conformance, ChunkOverrideSweepStaysCorrect) {
  const std::uint64_t seed = testing::conf::suite_seed();
  sim::Rng rng(rng_seed_for("chunks", seed));
  int index = 0;
  for (const long long chunk_bytes : {1LL, 1000LL, 4096LL}) {
    ChunkOverrideGuard chunks(chunk_bytes);
    Trial t = sample_trial(rng, seed, index++, Category::kNone);
    t.msg = 20000;  // odd size: chunk ranges must tile exactly
    SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk_bytes));
    check_allgather_trial(t);
  }
}

// ---- Determinism: same plan + same seed => byte-identical traces ----

TEST_F(Conformance, SamePlanSameSeedSameTrace) {
  Trial t;
  t.seed = testing::conf::suite_seed();
  t.nodes = 2;
  t.ppn = 2;
  t.hcas = 2;
  t.msg = 40000;
  t.fault_plan =
      "kill:node=0,hca=1,t=1e-5;degrade:node=1,hca=0,t=0,bw=0.5,lat=2;"
      "flaky:rate=0.2,burst=2,seed=42";

  auto one_run = [&](std::string* csv) {
    trace::Tracer tracer;
    const RankBytes out =
        testing::conf::run_allgather(profiles::mha().allgather, t, &tracer);
    std::ostringstream os;
    tracer.write_csv(os);
    *csv = os.str();
    return out;
  };

  std::string csv_a, csv_b;
  const RankBytes out_a = one_run(&csv_a);
  const RankBytes out_b = one_run(&csv_b);
  EXPECT_EQ(testing::conf::diff_results(out_a, out_b), "");
  EXPECT_EQ(csv_a, csv_b) << "fault-injected trace is not deterministic";
  EXPECT_NE(csv_a.find("fault:"), std::string::npos)
      << "expected fault spans in the trace";
}

}  // namespace
}  // namespace hmca
