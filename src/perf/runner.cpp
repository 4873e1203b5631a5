#include "perf/runner.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/mha_intra.hpp"
#include "core/selector.hpp"
#include "core/tuner.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/sink.hpp"
#include "obs/utilization.hpp"
#include "osu/algo_flag.hpp"
#include "osu/env.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "trace/trace.hpp"

#ifndef HMCA_BUILD_TYPE
#define HMCA_BUILD_TYPE "unknown"
#endif

namespace hmca::perf {

namespace {

/// Simulated metrics of one collective invocation, from its capture.
std::map<std::string, double> collective_metrics(
    double seconds, const trace::Tracer& tracer, const obs::Metrics& metrics,
    const std::vector<obs::ResourceSample>& samples) {
  std::map<std::string, double> out;
  out["latency_us"] = seconds * 1e6;
  const auto cp = obs::analyze_critical_path(tracer.spans());
  out["critical_path_us"] = static_cast<double>(cp.total) * 1e6;
  out["overlap_fraction"] = obs::phase_overlap_fraction(tracer.spans());
  // Critical-path attribution margins: where the dominant chain spent its
  // time, by phase and by span kind. These are what the diff attribution
  // aligns, so a drift report can say "phase2 nic time grew" rather than
  // just "latency grew".
  for (const auto& [phase, dur] : cp.by_phase) {
    out["cp_phase_" + phase + "_us"] = static_cast<double>(dur) * 1e6;
  }
  for (const auto& [kind, dur] : cp.by_kind) {
    out["cp_kind_" + kind + "_us"] = static_cast<double>(dur) * 1e6;
  }
  // Resource-class margins from the path steps (task-aware: a kTask step
  // classifies by its label's task-kind token). cp_class_* is the per-run
  // marginal, cp_cell_<phase>_<class>_us the joint cell the diff headline
  // names.
  for (const auto& st : cp.steps) {
    const char* cls = obs::names::span_resource_class(st.kind, st.label);
    if (*cls == '\0') continue;
    const double dur = static_cast<double>(st.t1 - st.t0) * 1e6;
    out["cp_class_" + std::string(cls) + "_us"] += dur;
    if (!st.phase.empty()) {
      out["cp_cell_" + st.phase + "_" + cls + "_us"] += dur;
    }
  }
  out["net_rail_bytes"] = metrics.counter_total("net.rail.bytes");
  out["net_retries"] = metrics.counter_total("net.retries");
  out["net_restripes"] = metrics.counter_total("net.restripes");
  out["shm_copy_bytes"] = metrics.counter_total("shm.copy_bytes");
  // Per-rail byte split (summed over nodes): the multi-HCA balance is the
  // paper's whole point, so an imbalance regression must be visible even
  // when the total is unchanged.
  for (const auto& [key, value] : metrics.counters()) {
    if (key.name != "net.rail.bytes") continue;
    for (const auto& [lk, lv] : key.labels) {
      if (lk == "rail") out["net_rail" + lv + "_bytes"] += value;
    }
  }
  // Utilization attribution (timeline channel): per-rail busy fractions
  // summed over nodes, plus the load-imbalance index — a rail can carry
  // the same bytes while staying busy longer, and that shift must gate.
  const obs::Utilization util =
      obs::analyze_utilization(tracer.spans(), samples, seconds);
  if (!util.rails.empty()) {
    out["rail_imbalance"] = util.rail_imbalance;
    std::map<int, double> busy_by_rail;
    for (const auto& r : util.rails) busy_by_rail[r.rail] += r.busy_frac;
    for (const auto& [rail, busy] : busy_by_rail) {
      out["rail" + std::to_string(rail) + "_busy_frac"] = busy;
    }
  }
  return out;
}

PointResult measure_collective(const Scenario& sc, std::size_t bytes) {
  trace::Tracer tracer;
  obs::Metrics metrics;
  std::vector<obs::ResourceSample> samples;
  obs::CollectSink sink(&tracer, &metrics, &samples);
  double seconds = 0;
  switch (sc.kind) {
    case Kind::kAllgather:
      seconds = osu::measure_allgather(
          sc.spec(), osu::subject_allgather(sc.subject), bytes, sink);
      break;
    case Kind::kAllreduce:
      seconds = osu::measure_allreduce(
          sc.spec(), osu::subject_allreduce(sc.subject), bytes, sink);
      break;
    case Kind::kAlltoall:
      seconds = osu::measure_alltoall(
          sc.spec(), osu::subject_alltoall(sc.subject), bytes, sink);
      break;
    case Kind::kReduceScatter:
      seconds = osu::measure_reduce_scatter(
          sc.spec(), osu::subject_reduce_scatter(sc.subject), bytes, sink);
      break;
    default:
      throw std::logic_error("measure_collective: non-collective kind");
  }
  PointResult pt{bytes, collective_metrics(seconds, tracer, metrics, samples),
                 {}};
  std::vector<std::string> decisions =
      obs::names::decision_labels(tracer.spans());
  std::sort(decisions.begin(), decisions.end());
  for (const auto& d : decisions) {
    if (!pt.decision.empty()) pt.decision += "; ";
    pt.decision += d;
  }
  return pt;
}

ScenarioResult run_scenario(const Scenario& sc) {
  ScenarioResult res;
  res.scenario = sc;
  switch (sc.kind) {
    case Kind::kAllgather:
    case Kind::kAllreduce:
    case Kind::kAlltoall:
    case Kind::kReduceScatter:
      for (std::size_t bytes : sc.xs) {
        res.points.push_back(measure_collective(sc, bytes));
      }
      break;
    case Kind::kPt2ptLatency:
      for (std::size_t bytes : sc.xs) {
        const double s = osu::measure_pt2pt_latency(sc.spec(), 0, 1, bytes);
        res.points.push_back({bytes, {{"latency_us", s * 1e6}}, {}});
      }
      break;
    case Kind::kPt2ptBandwidth:
      for (std::size_t bytes : sc.xs) {
        const double bps = osu::measure_pt2pt_bandwidth(sc.spec(), 0, 1,
                                                        bytes);
        res.points.push_back({bytes, {{"bandwidth_mb_s", bps / 1e6}}, {}});
      }
      break;
    case Kind::kOffloadSweep: {
      const auto spec = sc.spec();
      for (std::size_t d : sc.xs) {
        const double s = core::OffloadTuner::measure(
            spec, sc.ppn, sc.msg_bytes, static_cast<double>(d));
        res.points.push_back({d, {{"latency_us", s * 1e6}}, {}});
      }
      res.derived["analytic_d"] = static_cast<double>(
          core::analytic_offload(spec, sc.ppn, sc.msg_bytes));
      res.derived["tuned_d"] =
          core::OffloadTuner::search(spec, sc.ppn, sc.msg_bytes);
      break;
    }
  }
  return res;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0 || ru.ru_maxrss <= 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

WallclockResult run_wallclock_probe(const ProbeSpec& probe, int repeats) {
  WallclockResult w;
  w.probe = probe.description;
  w.repeats = repeats;
  const auto spec = probe.spec();
  const auto& fn = profiles::mha().allgather;
  // Untimed warmup so first-touch allocation noise stays out of sample 1.
  (void)osu::measure_allgather_counted(spec, fn, probe.msg_bytes);
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = osu::measure_allgather_counted(spec, fn, probe.msg_bytes);
    const auto t1 = std::chrono::steady_clock::now();
    const double host_s = std::chrono::duration<double>(t1 - t0).count();
    w.events = run.events;
    w.samples_events_per_sec.push_back(
        host_s > 0 ? static_cast<double>(run.events) / host_s : 0);
  }
  w.median_events_per_sec = median_of(w.samples_events_per_sec);
  std::vector<double> dev;
  dev.reserve(w.samples_events_per_sec.size());
  for (double s : w.samples_events_per_sec) {
    dev.push_back(std::abs(s - w.median_events_per_sec));
  }
  w.mad_events_per_sec = median_of(std::move(dev));
  w.peak_rss_bytes = peak_rss_bytes();
  return w;
}

}  // namespace

std::string Environment::fingerprint() const {
  return compiler + "|" + build_type + "|" + os + "|" + arch;
}

Environment detect_environment() {
  Environment env;
  // Same resolution as the stats writer's provenance stamp (HMCA_GIT_SHA,
  // else git, else "unknown") so the two artifact families agree.
  env.git_sha = osu::Env::git_sha();
#if defined(__VERSION__)
  env.compiler = __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.build_type = HMCA_BUILD_TYPE;
  struct utsname u {};
  if (::uname(&u) == 0) {
    env.os = std::string(u.sysname) + " " + u.release;
    env.arch = u.machine;
  } else {
    env.os = "unknown";
    env.arch = "unknown";
  }
  return env;
}

Report run_campaign(const Campaign& c, const RunOptions& opts) {
  validate_campaign(c);
  core::register_core_algorithms();
  Report r;
  r.label = opts.label;
  r.campaign = c.name;
  r.env = detect_environment();
  std::size_t i = 0;
  for (const auto& base : c.scenarios) {
    ++i;
    Scenario sc = base;
    if (!opts.topo.empty()) {
      sc.topo = opts.topo;
      // Surface shape/override conflicts (e.g. sockets=2 broadcast onto a
      // ppn=1 pt2pt scenario) with the scenario named, before the run.
      try {
        sc.spec();
      } catch (const hw::SpecError& e) {
        throw hw::SpecError(sc.id + ": --topo '" + opts.topo +
                            "' does not fit this scenario: " + e.what());
      }
    }
    if (opts.progress != nullptr) {
      *opts.progress << "[" << i << "/" << c.scenarios.size() << "] " << sc.id
                     << " (" << kind_name(sc.kind) << ", " << sc.xs.size()
                     << " points)";
      if (!sc.topo.empty()) *opts.progress << " topo=" << sc.topo;
      *opts.progress << '\n';
      opts.progress->flush();
    }
    r.scenarios.push_back(run_scenario(sc));
  }
  if (opts.wallclock) {
    if (opts.progress != nullptr) {
      *opts.progress << "wall-clock probe x" << opts.wallclock_repeats
                     << "...\n";
      opts.progress->flush();
    }
    r.wallclock = run_wallclock_probe(c.probe, opts.wallclock_repeats);
  }
  return r;
}

std::string format_metric(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

namespace {

void write_metric_map(std::ostream& os, const std::map<std::string, double>& m,
                      const char* indent) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "\n" : ",\n") << indent << "  \"" << obs::json_escape(name)
       << "\": " << format_metric(value);
    first = false;
  }
  if (!first) os << '\n' << indent;
  os << "}";
}

}  // namespace

std::string scenarios_json(const Report& r) {
  std::ostringstream os;
  os << "[";
  bool first_sc = true;
  for (const auto& res : r.scenarios) {
    const auto& sc = res.scenario;
    os << (first_sc ? "\n" : ",\n");
    first_sc = false;
    os << "    {\n";
    os << "      \"id\": \"" << obs::json_escape(sc.id) << "\",\n";
    os << "      \"figure\": \"" << obs::json_escape(sc.figure) << "\",\n";
    os << "      \"kind\": \"" << kind_name(sc.kind) << "\",\n";
    os << "      \"subject\": \"" << obs::json_escape(sc.subject) << "\",\n";
    os << "      \"nodes\": " << sc.nodes << ",\n";
    os << "      \"ppn\": " << sc.ppn << ",\n";
    os << "      \"hcas\": " << sc.hcas << ",\n";
    os << "      \"faults\": \"" << obs::json_escape(sc.faults) << "\",\n";
    // Emitted only when set: stock reports stay byte-identical to the
    // committed seeds.
    if (!sc.topo.empty()) {
      os << "      \"topo\": \"" << obs::json_escape(sc.topo) << "\",\n";
    }
    os << "      \"msg_bytes\": " << sc.msg_bytes << ",\n";
    if (!res.derived.empty()) {
      os << "      \"derived\": ";
      write_metric_map(os, res.derived, "      ");
      os << ",\n";
    }
    os << "      \"points\": [";
    bool first_pt = true;
    for (const auto& pt : res.points) {
      os << (first_pt ? "\n" : ",\n");
      first_pt = false;
      os << "        {\"x\": " << pt.x;
      // Emitted only when the selector ran: pt2pt/offload points and
      // selector-bypassing subjects keep their old shape.
      if (!pt.decision.empty()) {
        os << ", \"decision\": \"" << obs::json_escape(pt.decision) << '"';
      }
      os << ", \"metrics\": ";
      write_metric_map(os, pt.metrics, "        ");
      os << "}";
    }
    if (!first_pt) os << "\n      ";
    os << "]\n    }";
  }
  if (!first_sc) os << "\n  ";
  os << "]";
  return os.str();
}

void write_report_json(std::ostream& os, const Report& r) {
  os << "{\n";
  os << "  \"format\": \"hmca-bench-1\",\n";
  os << "  \"label\": \"" << obs::json_escape(r.label) << "\",\n";
  os << "  \"campaign\": \"" << obs::json_escape(r.campaign) << "\",\n";
  os << "  \"environment\": {\n";
  os << "    \"git_sha\": \"" << obs::json_escape(r.env.git_sha) << "\",\n";
  os << "    \"compiler\": \"" << obs::json_escape(r.env.compiler) << "\",\n";
  os << "    \"build_type\": \"" << obs::json_escape(r.env.build_type)
     << "\",\n";
  os << "    \"os\": \"" << obs::json_escape(r.env.os) << "\",\n";
  os << "    \"arch\": \"" << obs::json_escape(r.env.arch) << "\",\n";
  os << "    \"fingerprint\": \"" << obs::json_escape(r.env.fingerprint())
     << "\"\n";
  os << "  },\n";
  os << "  \"scenarios\": " << scenarios_json(r);
  if (r.wallclock.has_value()) {
    const auto& w = *r.wallclock;
    os << ",\n  \"wallclock\": {\n";
    os << "    \"probe\": \"" << obs::json_escape(w.probe) << "\",\n";
    os << "    \"repeats\": " << w.repeats << ",\n";
    os << "    \"events\": " << w.events << ",\n";
    os << "    \"peak_rss_bytes\": " << w.peak_rss_bytes << ",\n";
    os << "    \"samples_events_per_sec\": [";
    for (std::size_t i = 0; i < w.samples_events_per_sec.size(); ++i) {
      os << (i == 0 ? "" : ", ") << format_metric(w.samples_events_per_sec[i]);
    }
    os << "],\n";
    os << "    \"median_events_per_sec\": "
       << format_metric(w.median_events_per_sec) << ",\n";
    os << "    \"mad_events_per_sec\": " << format_metric(w.mad_events_per_sec)
       << "\n  }";
  }
  os << "\n}\n";
}

}  // namespace hmca::perf
