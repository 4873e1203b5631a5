#include "osu/algo_flag.hpp"

#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "coll/registry.hpp"
#include "core/mha.hpp"
#include "mpi/datatype.hpp"
#include "profiles/profiles.hpp"
#include "sim/fault.hpp"

namespace hmca::osu {

namespace {

std::string load_fault_spec(const std::string& value) {
  if (value.empty() || value.front() != '@') return value;
  const std::string path = value.substr(1);
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("--faults: cannot read plan file '" + path +
                                "'");
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

}  // namespace

AlgoFlag parse_algo_flag(int argc, char** argv) {
  Env::warn_unknown_once();
  AlgoFlag flag;
  bool stats_flag_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* name, std::size_t eq_len) {
      std::string value;
      if (arg.size() == eq_len - 1) {  // bare flag: value in the next arg
        if (i + 1 >= argc) {
          throw std::invalid_argument(std::string(name) + " requires a value");
        }
        value = argv[++i];
      } else {
        value = arg.substr(eq_len);
      }
      if (value.empty()) {
        throw std::invalid_argument(std::string(name) + " requires a value");
      }
      return value;
    };
    if (arg == "--algo" || arg.rfind("--algo=", 0) == 0) {
      const std::string value = value_of("--algo (try --algo list)", 7);
      if (value == "list") {
        flag.list = true;
      } else {
        flag.name = value;
      }
    } else if (arg == "--faults" || arg.rfind("--faults=", 0) == 0) {
      flag.faults = load_fault_spec(value_of("--faults", 9));
    } else if (arg == "--topo" || arg.rfind("--topo=", 0) == 0) {
      flag.topo = value_of("--topo", 7);
    } else if (arg == "--stats") {  // bare flag: text report, no value taken
      flag.stats.enabled = true;
      flag.stats.format = StatsFormat::kText;
      stats_flag_seen = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      flag.stats.enabled = true;
      flag.stats.format = parse_stats_format(arg.substr(8), "--stats");
      stats_flag_seen = true;
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      flag.stats.trace_path = value_of("--trace", 8);
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      flag.stats.report_path = value_of("--report", 9);
    } else if (arg == "--json") {
      flag.json = true;
    }
  }
  if (flag.faults.empty()) {
    if (const auto env = Env::faults()) flag.faults = *env;
  }
  if (!stats_flag_seen) {
    if (const auto fmt = Env::stats()) {
      flag.stats.enabled = true;
      flag.stats.format = *fmt;
    }
  }
  // Fail on typos now, not inside the Nth measurement.
  sim::FaultPlan::parse(flag.faults);
  return flag;
}

hw::ClusterSpec with_faults(hw::ClusterSpec spec, const AlgoFlag& flag) {
  if (!flag.faults.empty()) spec.fault_plan = flag.faults;
  return spec;
}

hw::ClusterSpec with_topo_and_faults(hw::ClusterSpec spec,
                                     const AlgoFlag& flag) {
  return with_faults(hw::apply_topo(std::move(spec), flag.topo), flag);
}

void print_algo_list(std::ostream& os) {
  const auto& reg = coll::Registry::instance();
  const auto section = [&os](const char* title, const auto& entries) {
    os << title << ":\n";
    for (const auto& a : entries) {
      os << "  " << a.name;
      for (std::size_t i = a.name.size(); i < 18; ++i) os << ' ';
      os << a.summary << '\n';
    }
  };
  section("allgather", reg.allgather.entries());
  section("allreduce", reg.allreduce.entries());
  section("alltoall", reg.alltoall.entries());
  section("alltoallv", reg.alltoallv.entries());
  section("reduce_scatter", reg.reduce_scatter.entries());
  section("bcast", reg.bcast.entries());
  section("allgatherv", reg.allgatherv.entries());
}

namespace {

/// Throws unless the pinned registry entry `a` (a `what` algorithm) applies
/// to `c`; `size` are its predicate's size arguments.
template <class A, class... Size>
void require_applicable(const A& a, const char* what, mpi::Comm& c,
                        Size... size) {
  if (!a.applies) return;
  const auto s = coll::CommShape::of(c);
  if (a.applies(s, size...)) return;
  throw std::invalid_argument(
      std::string("--algo ") + a.name + ": " + what +
      " is not applicable to this communicator (size=" +
      std::to_string(s.comm_size) + ", nodes=" + std::to_string(s.nodes) +
      ", ppn=" + std::to_string(s.ppn) + ")");
}

/// The registry name of an "algo:<name>" subject.
std::optional<std::string> pinned_name(const std::string& subject) {
  if (subject.rfind("algo:", 0) != 0) return std::nullopt;
  return subject.substr(5);
}

/// Alltoall and reduce_scatter have no comparator profiles: their only
/// profile subject is "mha", the selection engine.
void require_mha(const char* what, const std::string& subject) {
  if (subject != "mha") {
    throw std::invalid_argument(std::string(what) + " subject '" + subject +
                                "' (expected \"mha\" or \"algo:<name>\")");
  }
}

}  // namespace

coll::AllgatherFn pinned_allgather(const std::string& name) {
  const auto& a = coll::Registry::instance().allgather.get(name);
  return [&a](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
              std::size_t m, bool ip) {
    require_applicable(a, "allgather", c, m);
    return a.fn(c, my, s, rv, m, ip);
  };
}

coll::AllreduceFn pinned_allreduce(const std::string& name) {
  const auto& a = coll::Registry::instance().allreduce.get(name);
  return [&a](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
              mpi::Dtype t, mpi::ReduceOp op) {
    require_applicable(a, "allreduce", c, n, mpi::dtype_size(t));
    return a.fn(c, my, d, n, t, op);
  };
}

coll::AlltoallFn pinned_alltoall(const std::string& name) {
  const auto& a = coll::Registry::instance().alltoall.get(name);
  return [&a](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
              std::size_t m) {
    require_applicable(a, "alltoall", c, m);
    return a.fn(c, my, s, rv, m);
  };
}

coll::ReduceScatterFn pinned_reduce_scatter(const std::string& name) {
  const auto& a = coll::Registry::instance().reduce_scatter.get(name);
  return [&a](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
              mpi::Dtype t, mpi::ReduceOp op) {
    require_applicable(a, "reduce_scatter", c, n, mpi::dtype_size(t));
    return a.fn(c, my, d, n, t, op);
  };
}

coll::AllgatherFn subject_allgather(const std::string& subject) {
  if (const auto name = pinned_name(subject)) return pinned_allgather(*name);
  return profiles::by_name(subject).allgather;
}

coll::AllreduceFn subject_allreduce(const std::string& subject) {
  if (const auto name = pinned_name(subject)) return pinned_allreduce(*name);
  return profiles::by_name(subject).allreduce;
}

coll::AlltoallFn subject_alltoall(const std::string& subject) {
  if (const auto name = pinned_name(subject)) return pinned_alltoall(*name);
  require_mha("alltoall", subject);
  return [](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
            std::size_t m) { return core::mha_alltoall(c, my, s, rv, m); };
}

coll::ReduceScatterFn subject_reduce_scatter(const std::string& subject) {
  if (const auto name = pinned_name(subject)) {
    return pinned_reduce_scatter(*name);
  }
  require_mha("reduce_scatter", subject);
  return [](mpi::Comm& c, int my, hw::BufView d, std::size_t n, mpi::Dtype t,
            mpi::ReduceOp op) {
    return core::mha_reduce_scatter(c, my, d, n, t, op);
  };
}

}  // namespace hmca::osu
