#include "core/selector.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"
#include "core/hierarchical.hpp"
#include "core/hierarchy.hpp"
#include "core/mha_allgatherv.hpp"
#include "core/mha_intra.hpp"
#include "core/mha_rooted.hpp"
#include "model/cost.hpp"
#include "osu/env.hpp"
#include "trace/trace.hpp"

namespace hmca::core {

namespace {

// Composed allreduce through the planner: reduce-up / ring
// reduce-scatter + shard-unshard allgather over the top leaders /
// multicast-down, at whatever depth the hierarchy resolves to
// (HMCA_HIERARCHY honored, topology-derived otherwise). The n-level
// generalization of ring_mha. The hierarchy is resolved inside
// the build, so once per call.
sim::Task<void> rs_ag_allreduce(mpi::Comm& comm, int my, hw::BufView data,
                                std::size_t count, mpi::Dtype dtype,
                                mpi::ReduceOp op) {
  co_await coll::prim::Planner::run(
      comm, my, hw::BufView{}, data, [&comm, count, dtype, op] {
        const auto& spec = comm.cluster().spec();
        HierarchySpec hs =
            hierarchy_from_env(spec).value_or(HierarchySpec::derive(spec, 0));
        const Hierarchy h(std::move(hs), comm.cluster());
        return coll::prim::allreduce_rs_ag(plan_levels(h), count, dtype, op);
      });
}

// Hierarchical leader-exchange alltoall: node groups from the resolved
// depth-2 hierarchy, leaders bundle their members' blocks so the wire
// carries ppn^2 blocks per node pair in one transfer set.
sim::Task<void> hier_leader_alltoall(mpi::Comm& comm, int my, hw::BufView send,
                                     hw::BufView recv, std::size_t msg) {
  co_await coll::prim::Planner::run(comm, my, send, recv, [&comm, msg] {
    const Hierarchy h(HierarchySpec::derive(comm.cluster().spec(), 2),
                      comm.cluster());
    return coll::prim::alltoall_hier(plan_levels(h).front().groups,
                                     comm.size(), msg);
  });
}

void register_core_impl(coll::Registry& reg) {
  const auto intra_only = [](const coll::CommShape& s, std::size_t) {
    return s.nodes == 1;
  };
  const auto world_multi_node = [](const coll::CommShape& s, std::size_t) {
    return s.world && s.nodes > 1;
  };

  reg.add_allgather(
      {"mha_intra",
       "Sec. 3.1: CMA direct spread + tuned HCA loopback offload (Eq. 1)",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_mha_intra(c, my, s, rv, m, ip); },
       intra_only,
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         return model::mha_intra_time(p, s.comm_size,
                                      static_cast<double>(m));
       }});
  reg.add_allgather(
      {"mha_inter_rd",
       "Sec. 3.2 hierarchical, RD inter-leader phase, overlapped",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         HierOptions o;
         o.phase2 = Phase2Algo::kRD;
         return allgather_hierarchical(c, my, s, rv, m, ip, o);
       },
       [](const coll::CommShape& s, std::size_t) {
         return s.world && s.nodes > 1 && coll::is_power_of_two(s.nodes);
       },
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         return model::mha_inter_time_rd(p, s.nodes, s.ppn,
                                         static_cast<double>(m));
       }});
  reg.add_allgather(
      {"mha_inter_ring",
       "Sec. 3.2 hierarchical, Ring inter-leader phase, overlapped",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         HierOptions o;
         o.phase2 = Phase2Algo::kRing;
         return allgather_hierarchical(c, my, s, rv, m, ip, o);
       },
       world_multi_node,
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         return model::mha_inter_time_ring(p, s.nodes, s.ppn,
                                           static_cast<double>(m));
       }});
  reg.add_allgather(
      {"mha_inter",
       "Sec. 3.2 hierarchical, model-resolved RD/Ring phase 2 (Fig. 8)",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         return allgather_hierarchical(c, my, s, rv, m, ip, HierOptions{});
       },
       world_multi_node,
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         const double mm = static_cast<double>(m);
         return std::min(model::mha_inter_time_rd(p, s.nodes, s.ppn, mm),
                         model::mha_inter_time_ring(p, s.nodes, s.ppn, mm));
       }});
  reg.add_allgather(
      {"mha_inter_barrier",
       "Sec. 3.2 with strict phase barriers (dataflow-off baseline)",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         HierOptions o;
         o.overlap = false;
         return allgather_hierarchical(c, my, s, rv, m, ip, o);
       },
       world_multi_node,
       {}});
  reg.add_allgather(
      {"single_leader",
       "Mamidala prior design: shm gather, RD exchange, overlapped",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         HierOptions o;
         o.phase1 = Phase1Mode::kShmGather;
         o.phase2 = coll::is_power_of_two(c.cluster().nodes())
                        ? Phase2Algo::kRD
                        : Phase2Algo::kRing;
         return allgather_hierarchical(c, my, s, rv, m, ip, o);
       },
       [](const coll::CommShape& s, std::size_t) { return s.world; },
       {}});
  // numa3 is the historical name of the derived depth-3 hierarchy.
  const auto depth3 = [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                         std::size_t m, bool ip) {
    return allgather_hierarchy(c, my, s, rv, m, ip,
                               HierarchySpec::derive(c.cluster().spec(), 3));
  };
  reg.add_allgather(
      {"numa3",
       "Sec. 7: 3-level NUMA-aware hierarchical (socket, node, cluster)",
       depth3,
       [](const coll::CommShape& s, std::size_t) { return s.world; },
       {}});
  reg.add_allgather(
      {"hier2",
       "declarative depth-2 hierarchy (node<cluster); == mha_inter",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) {
         return allgather_hierarchy(c, my, s, rv, m, ip,
                                    HierarchySpec::derive(c.cluster().spec(),
                                                          2));
       },
       world_multi_node,
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         const double mm = static_cast<double>(m);
         return std::min(model::mha_inter_time_rd(p, s.nodes, s.ppn, mm),
                         model::mha_inter_time_ring(p, s.nodes, s.ppn, mm));
       }});
  reg.add_allgather(
      {"hier3",
       "declarative depth-3 hierarchy (socket<node<cluster); == numa3",
       depth3,
       [](const coll::CommShape& s, std::size_t) { return s.world; },
       {}});

  reg.add_allreduce(
      {"ring_mha",
       "ring reduce-scatter + MHA Allgather of the chunks (Sec. 5.4)",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) {
         return coll::allreduce_ring(c, my, d, n, t, op, mha_allgather);
       },
       [](const coll::CommShape& s, std::size_t count, std::size_t) {
         return count % static_cast<std::size_t>(s.comm_size) == 0;
       },
       {}});

  reg.add_allreduce(
      {"rs_ag",
       "composed: planner reduce-up + leader RS/AG + multicast-down",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) { return rs_ag_allreduce(c, my, d, n, t, op); },
       [](const coll::CommShape& s, std::size_t, std::size_t) {
         return s.world;
       },
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t bytes) {
         // Reduce-up + multicast-down over shared memory, RS+AG striped
         // across the rails between node leaders.
         const double b = static_cast<double>(bytes);
         const double n = s.nodes;
         double t = s.ppn > 1 ? 2 * (s.ppn - 1) * p.alpha_c + 2 * b / p.bw_c
                              : 0.0;
         if (n > 1) {
           t += 2 * (n - 1) *
                (p.alpha_h + b / n / (p.bw_h * p.hcas));
         }
         return t;
       }});

  reg.add_alltoall(
      {"hier_leader",
       "hierarchical leader exchange: gather, leader mesh, scatter",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          std::size_t m) { return hier_leader_alltoall(c, my, s, rv, m); },
       world_multi_node,
       [](const model::ModelParams& p, const coll::CommShape& s,
          std::size_t m) {
         const double msg = static_cast<double>(m);
         const double n = static_cast<double>(s.comm_size);
         // Gather + scatter through the node leader, then one bundled
         // transfer set per node pair over the rails.
         double t = 2 * (s.ppn - 1) * (p.alpha_c + n * msg / p.bw_c);
         t += (s.nodes - 1) * p.alpha_h +
              s.ppn * (n - s.ppn) * msg / (p.bw_h * p.hcas);
         return t;
       }});

  reg.add_bcast({"mha",
                 "hierarchical: leader scatter-allgather + pipelined shm",
                 [](mpi::Comm& c, int my, int root, hw::BufView d) {
                   return mha_bcast(c, my, root, d);
                 },
                 [](const coll::CommShape& s, std::size_t) { return s.world; },
                 {}});
  reg.add_bcast({"hier",
                 "declarative hierarchy bcast: leader bcast + shm cascade",
                 [](mpi::Comm& c, int my, int root, hw::BufView d) {
                   return bcast_hierarchy(
                       c, my, root, d,
                       HierarchySpec::derive(c.cluster().spec(), 0));
                 },
                 [](const coll::CommShape& s, std::size_t) { return s.world; },
                 {}});

  reg.add_allgatherv(
      {"mha",
       "hierarchical Allgatherv: byte-budget offload, overlapped phases",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          const coll::VarLayout& l, bool ip) {
         return allgatherv_mha(c, my, s, rv, l, ip);
       },
       [](const coll::CommShape& s, std::size_t) { return s.world; },
       {}});
}

/// The steps every family's selection shares, bound to one call. `what`
/// names the family (reason prefix, span and metric label); `bytes` is the
/// size the decision span records and the cost hooks see; `applies` is an
/// entry's applicability at this call (a null predicate always applies).
template <class A>
class Chain {
 public:
  using Fn = decltype(A::fn);

  Chain(mpi::Comm& comm, int my, const coll::CommShape& shape,
        const char* what, std::size_t bytes,
        std::function<bool(const A&)> applies)
      : comm_(comm), my_(my), shape_(shape), what_(what), bytes_(bytes),
        applies_(std::move(applies)) {}

  /// Record the decision as a zero-length kPhase span on the deciding rank,
  /// and count it by (collective, algo, reason) — once per invocation, on
  /// rank 0, since every SPMD rank resolves the same decision. Reasons
  /// carry the collective name so multi-collective traces stay unambiguous
  /// ("allgather:threshold:..." vs "allreduce:threshold:...").
  Selection<A> finish(const A& a, Fn fn, std::string reason) const {
    reason = std::string(what_) + ":" + reason;
    obs::Sink& sink = comm_.sink();
    const sim::Time now = comm_.engine().now();
    sink.record(trace::Span{comm_.to_global(my_), trace::Kind::kPhase, now,
                            now, /*peer=*/-1, bytes_,
                            std::string("select:") + what_ + "=" + a.name +
                                " [" + reason + "]"});
    if (my_ == 0 && sink.wants_metrics()) {
      sink.count("core.selector.decision", 1,
                 {{"collective", what_}, {"algo", a.name}, {"reason", reason}});
    }
    return Selection<A>{&a, std::move(fn), std::move(reason)};
  }
  Selection<A> finish(const A& a, std::string reason) const {
    return finish(a, a.fn, std::move(reason));
  }

  /// Step 1, environment override: `name`, the value of `var`, pins any
  /// registry entry for experiments. Unknown names fail in the registry
  /// lookup; inapplicable ones fail here, `where()` describing the call.
  template <class Where>
  std::optional<Selection<A>> env_override(
      const std::optional<std::string>& name, const char* var,
      const A& (coll::Registry::*get)(const std::string&) const,
      Where where) const {
    if (!name) return std::nullopt;
    const A& a = (coll::Registry::instance().*get)(*name);
    if (!applies_(a)) {
      throw std::invalid_argument(std::string("selector: ") + var + "=" +
                                  *name + " is not applicable" + where());
    }
    return finish(a, std::string("env:") + var);
  }

  /// Cost model: the cheapest applicable entry with an estimate (the first
  /// registered wins a tie), or nothing when no entry has one.
  std::optional<Selection<A>> cheapest(
      const std::deque<A>& entries, const model::ModelParams& params) const {
    const A* best = nullptr;
    double best_cost = 0;
    for (const auto& a : entries) {
      if (!a.cost || !applies_(a)) continue;
      const double c = a.cost(params, shape_, bytes_);
      if (best == nullptr || c < best_cost) {
        best = &a;
        best_cost = c;
      }
    }
    if (best == nullptr) return std::nullopt;
    return finish(*best, "cost-model");
  }

 private:
  mpi::Comm& comm_;
  int my_;
  const coll::CommShape& shape_;
  const char* what_;
  std::size_t bytes_;
  std::function<bool(const A&)> applies_;
};

/// " to this communicator (size=.., nodes=.., ppn=..)": where an
/// inapplicable allgather or alltoall override was asked to run.
std::string on_communicator(const coll::CommShape& shape) {
  return " to this communicator (size=" + std::to_string(shape.comm_size) +
         ", nodes=" + std::to_string(shape.nodes) +
         ", ppn=" + std::to_string(shape.ppn) + ")";
}

/// " (size=.., count=..)": the same for an allreduce or reduce_scatter.
std::string on_count(const coll::CommShape& shape, std::size_t count) {
  return " (size=" + std::to_string(shape.comm_size) +
         ", count=" + std::to_string(count) + ")";
}

}  // namespace

void register_core_algorithms() {
  static const bool done = [] {
    register_core_impl(coll::Registry::instance());
    return true;
  }();
  (void)done;
}

AllgatherSelection Selector::select_allgather(mpi::Comm& comm, int my,
                                              std::size_t msg) const {
  register_core_algorithms();
  auto& reg = coll::Registry::instance();
  const auto shape = coll::CommShape::of(comm);
  const auto& spec = comm.cluster().spec();

  const Chain<coll::AllgatherAlgo> chain(
      comm, my, shape, "allgather", msg, [&](const coll::AllgatherAlgo& a) {
        return !a.applies || a.applies(shape, msg);
      });

  // 1. Environment override.
  if (auto pinned = chain.env_override(
          osu::Env::allgather_algo(), kAllgatherAlgoEnv,
          &coll::Registry::get_allgather,
          [&shape] { return on_communicator(shape); })) {
    return *std::move(pinned);
  }

  // 2. Hierarchy override: HMCA_HIERARCHY pins the leader-hierarchy depth
  // (or a JSON spec file) while leaving the rest of the policy alone. Only
  // meaningful on multi-node world communicators — the hierarchical engine
  // needs the node-major world layout.
  if (shape.world && shape.nodes > 1) {
    if (auto hs = hierarchy_from_env(spec)) {
      const auto& a =
          reg.get_allgather(hs->depth() >= 3 ? "hier3" : "hier2");
      HierarchySpec hspec = std::move(*hs);
      return chain.finish(
          a,
          [hspec](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                  std::size_t m, bool ip) {
            return allgather_hierarchy(c, r, s, rv, m, ip, hspec);
          },
          std::string("env:") + osu::Env::kHierarchy);
    }
  }

  // 3. Cost model. Under rail faults the models see the surviving adapter
  // count, so estimates track the degraded loopback/stripe capacity.
  if (use_cost_model_) {
    auto params = model::ModelParams::from_spec(spec);
    if (shape.degraded() && shape.healthy_hcas >= 1) {
      params.hcas = shape.healthy_hcas;
    }
    if (auto best = chain.cheapest(reg.allgathers(), params)) {
      return *std::move(best);
    }
  }

  // 4. Static thresholds: the paper's defaults (historical dispatch), with
  // rail health as an applicability input — degraded shapes route to the
  // variants that fit the surviving topology.
  const auto degraded_reason = [&shape] {
    return "degraded:rails=" + std::to_string(shape.healthy_hcas) + "/" +
           std::to_string(shape.hcas);
  };
  if (shape.nodes == 1) {
    if (msg < kIntraSmallThreshold) {
      const auto& a = reg.get_allgather("rd_or_bruck");
      return chain.finish(a, "threshold:intra-small");
    }
    const auto& a = reg.get_allgather("mha_intra");
    if (shape.healthy_hcas == 0) {
      // Every loopback rail is down: pin the CPU-only CMA baseline rather
      // than relying on the in-algorithm fallback, so the decision is
      // visible in the trace.
      return chain.finish(
          a,
          [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
             std::size_t m, bool ip) {
            return allgather_mha_intra(c, r, s, rv, m, ip, /*offload=*/0.0);
          },
          degraded_reason() + ":cpu-only");
    }
    if (shape.degraded()) return chain.finish(a, degraded_reason());
    return chain.finish(a, "threshold:intra-large");
  }
  if (shape.world) {
    if (shape.degraded()) {
      // A lost or weakened rail breaks the Fig. 8 calibration (it assumed
      // the full stripe width). Ring's single-chunk steps restripe over
      // the surviving rails every hop and keep per-post exposure minimal,
      // so degraded shapes pin the Ring phase-2 variant.
      const auto& a = reg.get_allgather("mha_inter_ring");
      return chain.finish(a, degraded_reason() + ":ring");
    }
    if (shape.sockets > 1) {
      // Multi-socket nodes: the topology naturally supports a deeper
      // leader hierarchy (socket < node < cluster), and the socket-staged
      // phase 1 keeps the gather NUMA-local. Flat nodes fall through to
      // the paper's depth-2 Fig. 8 thresholds unchanged.
      const auto& a = reg.get_allgather("hier3");
      return chain.finish(a, "depth:" + shape.level_structure());
    }
    const Phase2Algo p2 =
        resolve_phase2(spec, shape.nodes, shape.ppn, msg, Phase2Algo::kAuto);
    if (p2 == Phase2Algo::kRing) {
      const auto& a = reg.get_allgather("mha_inter_ring");
      return chain.finish(a, "threshold:fig8-ring");
    }
    const auto& a = reg.get_allgather("mha_inter_rd");
    return chain.finish(a, "threshold:fig8-rd");
  }
  // Multi-node subset communicator: the hierarchical engine needs the
  // node-major world layout, so fall back to a flat algorithm instead of
  // throwing (the historical dispatcher did the latter).
  const auto& a = reg.get_allgather("rd_or_bruck");
  return chain.finish(a, "threshold:flat-fallback");
}

AllreduceSelection Selector::select_allreduce(mpi::Comm& comm, int my,
                                              std::size_t count,
                                              mpi::Dtype dtype) const {
  register_core_algorithms();
  auto& reg = coll::Registry::instance();
  const auto shape = coll::CommShape::of(comm);
  const std::size_t elem = mpi::dtype_size(dtype);
  const std::size_t bytes = count * elem;

  const Chain<coll::AllreduceAlgo> chain(
      comm, my, shape, "allreduce", bytes, [&](const coll::AllreduceAlgo& a) {
        return !a.applies || a.applies(shape, count, elem);
      });

  // 1. Environment override.
  if (auto pinned = chain.env_override(
          osu::Env::allreduce_algo(), kAllreduceAlgoEnv,
          &coll::Registry::get_allreduce,
          [&] { return on_count(shape, count); })) {
    return *std::move(pinned);
  }

  // 3. Cost model.
  if (use_cost_model_) {
    const auto params = model::ModelParams::from_spec(comm.cluster().spec());
    if (auto best = chain.cheapest(reg.allreduces(), params)) {
      return *std::move(best);
    }
  }

  // 4. Static thresholds (Sec. 5.4): RD for small vectors or when the count
  // does not split evenly over the ranks; Ring + MHA Allgather otherwise.
  if (bytes <= kAllreduceRdThreshold ||
      count % static_cast<std::size_t>(shape.comm_size) != 0) {
    const auto& a = reg.get_allreduce("rd");
    return chain.finish(a, "threshold:small-or-indivisible");
  }
  const auto& a = reg.get_allreduce("ring_mha");
  return chain.finish(a, "threshold:large");
}

AlltoallSelection Selector::select_alltoall(mpi::Comm& comm, int my,
                                            std::size_t msg) const {
  register_core_algorithms();
  auto& reg = coll::Registry::instance();
  const auto shape = coll::CommShape::of(comm);

  const Chain<coll::AlltoallAlgo> chain(
      comm, my, shape, "alltoall", msg, [&](const coll::AlltoallAlgo& a) {
        return !a.applies || a.applies(shape, msg);
      });

  // 1. Environment override.
  if (auto pinned = chain.env_override(
          osu::Env::alltoall_algo(), kAlltoallAlgoEnv,
          &coll::Registry::get_alltoall,
          [&shape] { return on_communicator(shape); })) {
    return *std::move(pinned);
  }

  // 3. Cost model.
  if (use_cost_model_) {
    const auto params = model::ModelParams::from_spec(comm.cluster().spec());
    if (auto best = chain.cheapest(reg.alltoalls(), params)) {
      return *std::move(best);
    }
  }

  // 4. Static thresholds: small blocks on multi-node worlds are
  // alpha-dominated — bundling per node through the leader exchange wins;
  // large blocks go direct so the payload path stays copy-free.
  if (shape.world && shape.nodes > 1 && shape.ppn > 1 &&
      msg <= kAlltoallHierThreshold) {
    const auto& a = reg.get_alltoall("hier_leader");
    return chain.finish(a, "threshold:hier-small");
  }
  const auto& a = reg.get_alltoall("direct");
  return chain.finish(a, "threshold:direct");
}

ReduceScatterSelection Selector::select_reduce_scatter(
    mpi::Comm& comm, int my, std::size_t count, mpi::Dtype dtype) const {
  register_core_algorithms();
  auto& reg = coll::Registry::instance();
  const auto shape = coll::CommShape::of(comm);
  const std::size_t elem = mpi::dtype_size(dtype);
  const std::size_t bytes = count * elem;

  const Chain<coll::ReduceScatterAlgo> chain(
      comm, my, shape, "reduce_scatter", bytes,
      [&](const coll::ReduceScatterAlgo& a) {
        return !a.applies || a.applies(shape, count, elem);
      });

  // 1. Environment override.
  if (auto pinned = chain.env_override(
          osu::Env::reduce_scatter_algo(), kReduceScatterAlgoEnv,
          &coll::Registry::get_reduce_scatter,
          [&] { return on_count(shape, count); })) {
    return *std::move(pinned);
  }

  // 3. Cost model.
  if (use_cost_model_) {
    const auto params = model::ModelParams::from_spec(comm.cluster().spec());
    if (auto best = chain.cheapest(reg.reduce_scatters(), params)) {
      return *std::move(best);
    }
  }

  // 4. Static thresholds: recursive halving's log2(n) startups win for
  // small vectors when the shape allows it; the ring's bandwidth-optimal
  // chunk steps win otherwise (and handle every count).
  if (bytes <= kReduceScatterRhThreshold &&
      coll::is_power_of_two(shape.comm_size) &&
      count % static_cast<std::size_t>(shape.comm_size) == 0) {
    const auto& a = reg.get_reduce_scatter("rh");
    return chain.finish(a, "threshold:rh-small");
  }
  const auto& a = reg.get_reduce_scatter("ring");
  return chain.finish(a, "threshold:ring");
}

Selector& default_selector() {
  static Selector s;
  return s;
}

}  // namespace hmca::core
