#include "profiles/profiles.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/mha.hpp"
#include "core/selector.hpp"

namespace hmca::profiles {

namespace {

// Library decision thresholds (per-process message bytes / vector bytes).
constexpr std::size_t kHpcxBruckThreshold = 2048;
constexpr std::size_t kHpcxAllreduceRd = 32768;
constexpr std::size_t kMvapichSmallThreshold = 4096;
constexpr std::size_t kMvapichAllreduceRd = 16384;

AllgatherRule ag_rule(std::string algo, std::size_t min_msg = 0,
                      std::size_t max_msg = SIZE_MAX) {
  AllgatherRule r;
  r.algo = std::move(algo);
  if (min_msg != 0 || max_msg != SIZE_MAX) {
    r.when = [min_msg, max_msg](const coll::CommShape&, std::size_t m) {
      return m >= min_msg && m <= max_msg;
    };
  }
  return r;
}

/// Allreduce rule that fires for vectors strictly above `min_bytes`.
AllreduceRule ar_rule(std::string algo, std::size_t min_bytes = 0) {
  AllreduceRule r;
  r.algo = std::move(algo);
  if (min_bytes != 0) {
    r.when = [min_bytes](const coll::CommShape&, std::size_t count,
                         std::size_t elem) {
      return count * elem > min_bytes;
    };
  }
  return r;
}

const AllgatherRule* match(const std::vector<AllgatherRule>& rules,
                           const coll::CommShape& shape, std::size_t msg) {
  auto& reg = coll::Registry::instance();
  for (const auto& r : rules) {
    if (r.when && !r.when(shape, msg)) continue;
    const auto& a = reg.allgather.get(r.algo);
    if (a.applies && !a.applies(shape, msg)) continue;
    return &r;
  }
  return nullptr;
}

const AllreduceRule* match(const std::vector<AllreduceRule>& rules,
                           const coll::CommShape& shape, std::size_t count,
                           std::size_t elem) {
  auto& reg = coll::Registry::instance();
  for (const auto& r : rules) {
    if (r.when && !r.when(shape, count, elem)) continue;
    const auto& a = reg.allreduce.get(r.algo);
    if (a.applies && !a.applies(shape, count, elem)) continue;
    return &r;
  }
  return nullptr;
}

/// Bind a policy's rule list into a callable. Non-coroutine lambdas that
/// *return* the chosen entry's task, so no captures outlive the call.
Profile bind(const Policy& p) {
  Profile prof;
  prof.name = p.name;
  if (p.use_selector) {
    prof.allgather = [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                        std::size_t m, bool ip) {
      return core::mha_allgather(c, my, s, rv, m, ip);
    };
    prof.allreduce = [](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
                        mpi::Dtype t, mpi::ReduceOp op) {
      return core::mha_allreduce(c, my, d, n, t, op);
    };
    return prof;
  }
  prof.allgather = [&p](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                        std::size_t m, bool ip) {
    const auto shape = coll::CommShape::of(c);
    const AllgatherRule* r = match(p.allgather, shape, m);
    if (r == nullptr) {
      throw std::runtime_error("profile '" + p.name +
                               "': no applicable allgather rule");
    }
    return coll::Registry::instance().allgather.get(r->algo).fn(c, my, s, rv,
                                                                m, ip);
  };
  prof.allreduce = [&p](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
                        mpi::Dtype t, mpi::ReduceOp op) {
    const auto shape = coll::CommShape::of(c);
    const AllreduceRule* r = match(p.allreduce, shape, n, mpi::dtype_size(t));
    if (r == nullptr) {
      throw std::runtime_error("profile '" + p.name +
                               "': no applicable allreduce rule");
    }
    return coll::Registry::instance().allreduce.get(r->algo).fn(c, my, d, n,
                                                                t, op);
  };
  return prof;
}

Policy make_hpcx() {
  Policy p;
  p.name = "hpcx";
  p.allgather = {ag_rule("bruck", 0, kHpcxBruckThreshold),  //
                 ag_rule("ring")};
  p.allreduce = {ar_rule("ring", kHpcxAllreduceRd),  // needs divisible count
                 ar_rule("rd")};
  return p;
}

Policy make_mvapich() {
  Policy p;
  p.name = "mvapich";
  // Large messages: two leader groups when ppn splits evenly, one group
  // when the comm is at least node-major world, flat Ring otherwise — the
  // registry applicability predicates encode the layout requirements, so
  // the fallback chain is just rule order.
  p.allgather = {ag_rule("rd_or_bruck", 0, kMvapichSmallThreshold),
                 ag_rule("multi_leader2"),  //
                 ag_rule("multi_leader1"),  //
                 ag_rule("ring")};
  p.allreduce = {ar_rule("ring", kMvapichAllreduceRd),  //
                 ar_rule("rd")};
  return p;
}

Policy make_mha() {
  Policy p;
  p.name = "mha";
  p.use_selector = true;
  return p;
}

}  // namespace

const Policy& policy(const std::string& name) {
  core::register_core_algorithms();
  static const Policy hp = make_hpcx();
  static const Policy mv = make_mvapich();
  static const Policy mh = make_mha();
  if (name == "hpcx") return hp;
  if (name == "mvapich") return mv;
  if (name == "mha") return mh;
  throw std::invalid_argument("unknown profile: " + name);
}

const Profile& mha() {
  static const Profile p = bind(policy("mha"));
  return p;
}

const Profile& hpcx() {
  static const Profile p = bind(policy("hpcx"));
  return p;
}

const Profile& mvapich() {
  static const Profile p = bind(policy("mvapich"));
  return p;
}

const Profile& by_name(const std::string& name) {
  if (name == "mha") return mha();
  if (name == "hpcx") return hpcx();
  if (name == "mvapich") return mvapich();
  throw std::invalid_argument("unknown profile: " + name);
}

std::vector<std::string> names() { return {"hpcx", "mvapich", "mha"}; }

}  // namespace hmca::profiles
