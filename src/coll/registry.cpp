#include "coll/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "coll/bcast.hpp"

namespace hmca::coll {

std::string CommShape::level_structure() const {
  std::string out = "cluster:1>node:" + std::to_string(nodes);
  if (sockets > 1) {
    out += ">socket:" + std::to_string(nodes * sockets);
  }
  return out;
}

CommShape CommShape::of(const mpi::Comm& comm) {
  auto& cl = comm.cluster();
  CommShape s;
  s.comm_size = comm.size();
  s.ppn = cl.ppn();
  s.hcas = cl.spec().hcas_per_node;
  s.sockets = cl.sockets();
  s.world = comm.size() == cl.world_size();
  std::vector<char> seen(static_cast<std::size_t>(cl.nodes()), 0);
  int distinct = 0;
  s.healthy_hcas = s.hcas;
  for (int r = 0; r < comm.size(); ++r) {
    const int node = comm.node_of(r);
    auto& flag = seen[static_cast<std::size_t>(node)];
    if (!flag) {
      flag = 1;
      ++distinct;
      s.healthy_hcas = std::min(s.healthy_hcas, cl.alive_rail_count(node));
    }
  }
  s.nodes = distinct;
  return s;
}

namespace {

// ---- Coarse alpha-beta cost terms (candidate *ranking*, not prediction;
// the paper-accurate Eqs. 2/6/7 are attached to the MHA entries by
// core::register_core_algorithms) ----

double step_alpha(const model::ModelParams& p, const CommShape& s) {
  return s.nodes > 1 ? p.alpha_h : p.alpha_c;
}

double step_bw(const model::ModelParams& p, const CommShape& s) {
  // Inter-node steps can stripe over all rails; intra-node steps are bound
  // by one copier.
  return s.nodes > 1 ? p.bw_h * p.hcas : p.bw_c;
}

double cost_ring(const model::ModelParams& p, const CommShape& s,
                 std::size_t m) {
  const double n = s.comm_size;
  return (n - 1) * (step_alpha(p, s) + static_cast<double>(m) / step_bw(p, s));
}

double cost_rd(const model::ModelParams& p, const CommShape& s,
               std::size_t m) {
  const double n = s.comm_size;
  return std::log2(std::max(2.0, n)) * step_alpha(p, s) +
         (n - 1) * static_cast<double>(m) / step_bw(p, s);
}

double cost_bruck(const model::ModelParams& p, const CommShape& s,
                  std::size_t m) {
  const double n = s.comm_size;
  // ceil(log2 N) startups, (N-1) blocks on the wire, plus the final local
  // re-rotation pass over the whole buffer.
  return std::ceil(std::log2(std::max(2.0, n))) * step_alpha(p, s) +
         (n - 1) * static_cast<double>(m) / step_bw(p, s) +
         n * static_cast<double>(m) / p.bw_l;
}

double cost_direct(const model::ModelParams& p, const CommShape& s,
                   std::size_t m) {
  const double n = s.comm_size;
  // All transfers posted up front: startups serialize on the posting core,
  // payloads share the path.
  return (n - 1) * step_alpha(p, s) +
         (n - 1) * static_cast<double>(m) / step_bw(p, s);
}

double cost_node_aware_bruck(const model::ModelParams& p, const CommShape& s,
                             std::size_t m) {
  const double l = s.ppn;
  const double n = s.nodes;
  const double msg = static_cast<double>(m);
  // Intra exchange + leader Bruck over node blocks + shm distribution.
  double t = std::ceil(std::log2(std::max(2.0, l))) * p.alpha_c +
             (l - 1) * msg / p.bw_c;
  if (n > 1) {
    t += std::ceil(std::log2(n)) * p.alpha_h +
         (n - 1) * l * msg / (p.bw_h * p.hcas);
    if (l > 1) t += (n - 1) * l * msg / p.bw_l;  // copy-in + copy-out
  }
  return t;
}

double cost_allreduce_rd(const model::ModelParams& p, const CommShape& s,
                         std::size_t bytes) {
  const double n = s.comm_size;
  return std::log2(std::max(2.0, n)) *
         (step_alpha(p, s) + static_cast<double>(bytes) / step_bw(p, s));
}

double cost_allreduce_ring(const model::ModelParams& p, const CommShape& s,
                           std::size_t bytes) {
  const double n = s.comm_size;
  // Reduce-scatter + allgather: 2(N-1) steps of one chunk each.
  return 2 * (n - 1) *
         (step_alpha(p, s) +
          static_cast<double>(bytes) / n / step_bw(p, s));
}

bool power_of_two_comm(const CommShape& s, std::size_t) {
  return is_power_of_two(s.comm_size);
}

void register_flat(Registry& r) {
  r.allgather.add(
      {"ring", "flat Ring: N-1 neighbour steps, bandwidth-optimal",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_ring(c, my, s, rv, m, ip); },
       {}, cost_ring});
  r.allgather.add(
      {"rd", "Recursive Doubling: log2(N) exchanges, power-of-two sizes",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_rd(c, my, s, rv, m, ip); },
       power_of_two_comm, cost_rd});
  r.allgather.add(
      {"bruck", "Bruck: ceil(log2 N) store-and-forward steps, any N",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_bruck(c, my, s, rv, m, ip); },
       {}, cost_bruck});
  r.allgather.add(
      {"direct", "Direct Spread: all transfers posted nonblocking up front",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_direct(c, my, s, rv, m, ip); },
       {}, cost_direct});
  r.allgather.add(
      {"rd_or_bruck", "RD when N is a power of two, Bruck otherwise",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_rd_or_bruck(c, my, s, rv, m, ip); },
       {},
       [](const model::ModelParams& p, const CommShape& s, std::size_t m) {
         return is_power_of_two(s.comm_size) ? cost_rd(p, s, m)
                                             : cost_bruck(p, s, m);
       }});
  r.allgather.add(
      {"multi_leader2",
       "Kandalla two-level, 2 leader groups/node, strict phases",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_multi_leader(c, my, s, rv, m, ip, 2); },
       [](const CommShape& s, std::size_t) {
         return s.world && s.ppn >= 2 && s.ppn % 2 == 0;
       },
       {}});
  r.allgather.add(
      {"multi_leader1",
       "Kandalla two-level, single leader/node, strict phases",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_multi_leader(c, my, s, rv, m, ip, 1); },
       [](const CommShape& s, std::size_t) { return s.world && s.ppn > 1; },
       {}});
  r.allgather.add(
      {"node_aware_bruck",
       "locality-aware: intra-node exchange, inter-node Bruck over leaders",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv, std::size_t m,
          bool ip) { return allgather_node_aware_bruck(c, my, s, rv, m, ip); },
       [](const CommShape& s, std::size_t) { return s.world; },
       cost_node_aware_bruck});

  r.allreduce.add(
      {"rd",
       "recursive doubling on the full vector, non-power-of-two fold",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) { return allreduce_rd(c, my, d, n, t, op); },
       {}, cost_allreduce_rd});
  r.allreduce.add(
      {"ring",
       "ring reduce-scatter + flat ring allgather (Patarasuk-Yuan)",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) { return allreduce_ring(c, my, d, n, t, op); },
       [](const CommShape& s, std::size_t count, std::size_t) {
         return count % static_cast<std::size_t>(s.comm_size) == 0;
       },
       cost_allreduce_ring});

  r.bcast.add({"binomial", "binomial tree, log2(N) rounds",
               [](mpi::Comm& c, int my, int root, hw::BufView d) {
                 return bcast_binomial(c, my, root, d);
               },
               {},
               [](const model::ModelParams& p, const CommShape& s,
                  std::size_t m) {
                 return std::log2(std::max(2.0, double(s.comm_size))) *
                        (step_alpha(p, s) +
                         static_cast<double>(m) / step_bw(p, s));
               }});
  r.bcast.add({"scatter_allgather",
               "van de Geijn scatter + ring allgather, large messages",
               [](mpi::Comm& c, int my, int root, hw::BufView d) {
                 return bcast_scatter_allgather(c, my, root, d);
               },
               [](const CommShape& s, std::size_t m) {
                 return m % static_cast<std::size_t>(s.comm_size) == 0;
               },
               {}});

  r.alltoall.add(
      {"direct",
       "planner full-mesh: every pairwise block in flight at once",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          std::size_t m) { return alltoall_direct(c, my, s, rv, m); },
       {},
       [](const model::ModelParams& p, const CommShape& s, std::size_t m) {
         const double n = s.comm_size;
         return (n - 1) * step_alpha(p, s) +
                (n - 1) * static_cast<double>(m) / step_bw(p, s);
       }});
  r.alltoall.add(
      {"pairwise", "classic pairwise exchange: n-1 sendrecv rounds",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          std::size_t m) { return alltoall_pairwise(c, my, s, rv, m); },
       {},
       [](const model::ModelParams& p, const CommShape& s, std::size_t m) {
         const double n = s.comm_size;
         return (n - 1) *
                (step_alpha(p, s) + static_cast<double>(m) / step_bw(p, s));
       }});

  r.alltoallv.add(
      {"direct",
       "planner full-mesh over the variable count matrix",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          const AlltoallvLayout& l) {
         return alltoallv_direct(c, my, s, rv, l);
       },
       {},
       {}});
  r.alltoallv.add(
      {"pairwise", "pairwise exchange rounds over variable blocks",
       [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
          const AlltoallvLayout& l) {
         return alltoallv_pairwise(c, my, s, rv, l);
       },
       {},
       {}});

  r.reduce_scatter.add(
      {"ring",
       "planner ring over element chunks, uneven counts allowed",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) {
         return reduce_scatter_ring_any(c, my, d, n, t, op);
       },
       {},
       [](const model::ModelParams& p, const CommShape& s,
          std::size_t bytes) {
         const double n = s.comm_size;
         return (n - 1) * (step_alpha(p, s) +
                           static_cast<double>(bytes) / n / step_bw(p, s));
       }});
  r.reduce_scatter.add(
      {"rh",
       "planner recursive halving, power-of-two worlds, divisible counts",
       [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
          mpi::ReduceOp op) {
         return reduce_scatter_halving(c, my, d, n, t, op);
       },
       [](const CommShape& s, std::size_t count, std::size_t) {
         return is_power_of_two(s.comm_size) &&
                count % static_cast<std::size_t>(s.comm_size) == 0;
       },
       [](const model::ModelParams& p, const CommShape& s,
          std::size_t bytes) {
         const double n = s.comm_size;
         return std::log2(std::max(2.0, n)) * step_alpha(p, s) +
                (n - 1) / n * static_cast<double>(bytes) / step_bw(p, s);
       }});

  r.allgatherv.add({"ring", "chunked ring over variable-size blocks",
                    [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                       const VarLayout& l, bool ip) {
                      return allgatherv_ring(c, my, s, rv, l, ip);
                    },
                    {},
                    {}});
  r.allgatherv.add({"direct", "all variable-size transfers posted up front",
                    [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                       const VarLayout& l, bool ip) {
                      return allgatherv_direct(c, my, s, rv, l, ip);
                    },
                    {},
                    {}});
}

}  // namespace

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry;
    register_flat(*r);
    return r;
  }();
  return *reg;
}

}  // namespace hmca::coll
