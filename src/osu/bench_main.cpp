#include "osu/bench_main.hpp"

#include <iostream>
#include <ostream>
#include <utility>

#include "core/selector.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"

namespace hmca::osu {

namespace {

/// The osu::subject_* name of the measured subject: the --algo-pinned
/// registry entry, else the MHA profile.
std::string measured(const AlgoFlag& flag) {
  return flag.name.empty() ? "mha" : "algo:" + flag.name;
}

}  // namespace

void BenchOutput::table(const Table& t) {
  if (json_) {
    tables_.push_back(t);
    return;
  }
  t.print(os_);
  os_ << '\n';
}

void BenchOutput::note(const std::string& text) {
  if (json_) {
    notes_.push_back(text);
    return;
  }
  os_ << text << '\n';
}

void BenchOutput::finish(const std::string& bench) {
  if (!json_) return;
  os_ << "{\n  \"bench\": \"" << obs::json_escape(bench)
      << "\",\n  \"tables\": [";
  bool first_table = true;
  for (const auto& t : tables_) {
    os_ << (first_table ? "\n" : ",\n");
    first_table = false;
    os_ << "    {\n      \"title\": \"" << obs::json_escape(t.title)
        << "\",\n      \"headers\": [";
    for (std::size_t c = 0; c < t.headers.size(); ++c) {
      os_ << (c == 0 ? "" : ", ") << '"' << obs::json_escape(t.headers[c])
          << '"';
    }
    os_ << "],\n      \"rows\": [";
    bool first_row = true;
    for (const auto& row : t.rows) {
      os_ << (first_row ? "\n" : ",\n") << "        [";
      first_row = false;
      for (std::size_t c = 0; c < row.size(); ++c) {
        os_ << (c == 0 ? "" : ", ") << '"' << obs::json_escape(row[c]) << '"';
      }
      os_ << ']';
    }
    if (!first_row) os_ << "\n      ";
    os_ << "]\n    }";
  }
  if (!first_table) os_ << "\n  ";
  os_ << "],\n  \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    os_ << (i == 0 ? "" : ", ") << '"' << obs::json_escape(notes_[i]) << '"';
  }
  os_ << "]\n}\n";
}

BenchContext::BenchContext(AlgoFlag f, std::string bench, std::ostream& os)
    : flag(std::move(f)),
      subject(flag.name.empty() ? "mha" : flag.name),
      stats(flag.stats, std::move(bench)),
      out(flag.json, os) {}

hw::ClusterSpec BenchContext::faulted(hw::ClusterSpec spec) const {
  return with_topo_and_faults(std::move(spec), flag);
}

coll::AllgatherFn BenchContext::subject_allgather() const {
  return osu::subject_allgather(measured(flag));
}

coll::AllreduceFn BenchContext::subject_allreduce() const {
  return osu::subject_allreduce(measured(flag));
}

coll::AlltoallFn BenchContext::subject_alltoall() const {
  return osu::subject_alltoall(measured(flag));
}

coll::ReduceScatterFn BenchContext::subject_reduce_scatter() const {
  return osu::subject_reduce_scatter(measured(flag));
}

int bench_main(const std::string& bench, int argc, char** argv,
               const std::function<void(BenchContext&)>& body) {
  try {
    core::register_core_algorithms();
    AlgoFlag flag = parse_algo_flag(argc, argv);
    if (flag.list) {
      print_algo_list(std::cout);
      return 0;
    }
    BenchContext ctx(std::move(flag), bench, std::cout);
    if (!ctx.flag.topo.empty()) {
      ctx.out.note("topology override: " + ctx.flag.topo);
      ctx.stats.set_provenance("topo", ctx.flag.topo);
      if (!ctx.out.json() && ctx.flag.faults.empty()) std::cout << '\n';
    }
    if (!ctx.flag.faults.empty()) {
      ctx.out.note("fault plan: " +
                   sim::FaultPlan::parse(ctx.flag.faults).to_string());
      ctx.stats.set_provenance("faults", ctx.flag.faults);
      if (!ctx.out.json()) std::cout << '\n';
    }
    body(ctx);
    ctx.out.finish(bench);
    ctx.stats.finish(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << bench << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace hmca::osu
