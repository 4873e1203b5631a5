// Host-cost benchmark driver.
//
// One single-threaded process runs a fixed list of *items* per workload. An
// item is one osu::measure_* call on a named cluster shape and message size,
// plus whatever the workload does with the result:
//
//   analyzed  capture spans, metrics and samples through an obs::CollectSink,
//             run the campaign analyses (critical path, phase overlap,
//             utilization, timeline) and serialize the item's record with
//             perf::write_report_json;
//   counted   uninstrumented allgather through osu::measure_allgather_counted
//             (the engine's dispatched-event count rides along);
//   plain     uninstrumented osu::measure_{allgather,allreduce,alltoall,
//             reduce_scatter} through the null sink.
//
// Items, shapes and expected simulated outputs come from the table
// (hostbench/expected.json, parsed with perf::parse_json_file). Every item's
// output is checked against it; a mismatch or a throw counts as a failed
// item. A run is a sequence of whole passes over the workload's items, each
// pass in an order shuffled by --seed, until --seconds have been measured
// (and at least 100 items have run).
//
// --trace 0 reports the end-to-end metrics: setup_s (process start until the
// first timed item: algorithm registration, table parse and one untimed
// warm-up item), pass_s (median pass), item_ms_p50/p90 (over every item
// timing of the run) and peak_rss_mb (VmHWM). --setup-only stops after the
// set-up and prints {"setup_s": ..}, so a caller can repeat the cold set-up
// in fresh processes (hostbench/run.py reports the median of five).
//
// --trace 1 reports the per-layer metrics. Layers are timed from outside:
// the driver brackets its own calls into the public functions of osu, obs,
// trace and perf with spans. The run starts with one memory pass (per-item
// peak RSS via /proc/self/clear_refs, kept out of all timings), then
// alternates untraced and span-recording passes so the tracing overhead is
// measured in the same process, and ends with the sim event-queue and fluid
// probes. Spans stay in memory and are written as a Chrome trace at the end
// (--trace-out). The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   hostbench --workload analyzed_inter --seed 1 --seconds 30 --trace 0
//   hostbench --workload planner_mix --record   # print measured outputs
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/selector.hpp"
#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "obs/utilization.hpp"
#include "osu/algo_flag.hpp"
#include "osu/harness.hpp"
#include "perf/json.hpp"
#include "perf/runner.hpp"
#include "profiles/profiles.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "trace/trace.hpp"

using namespace hmca;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double since_start() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool record = false;
  bool setup_only = false;
  std::string table = "hostbench/expected.json";
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (a == "--table") {
      o.table = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--record") {
      o.record = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ------------------------------------------------------------- item table

// The collective kinds an item can measure, in perf::Kind order.
constexpr perf::Kind kOps[] = {perf::Kind::kAllgather, perf::Kind::kAllreduce,
                               perf::Kind::kAlltoall,
                               perf::Kind::kReduceScatter};

perf::Kind op_of(const std::string& s) {
  for (perf::Kind k : kOps) {
    if (s == perf::kind_name(k)) return k;
  }
  throw std::invalid_argument("unknown op '" + s + "'");
}

enum class Mode { kAnalyzed, kCounted, kPlain };

Mode mode_of(const std::string& s) {
  if (s == "analyzed") return Mode::kAnalyzed;
  if (s == "counted") return Mode::kCounted;
  if (s == "plain") return Mode::kPlain;
  throw std::invalid_argument("unknown mode '" + s + "'");
}

struct Item {
  std::string id;
  perf::Kind op = perf::Kind::kAllgather;
  std::string subject;
  int nodes = 0;
  int ppn = 0;
  std::size_t bytes = 0;
  // Expected simulated outputs; < 0 = not recorded for this item.
  double latency_us = -1;
  double critical_path_us = -1;
  double events = -1;
};

struct Workload {
  std::string name;
  Mode mode = Mode::kPlain;
  std::vector<Item> items;
  std::size_t warmup = 0;  // index of the untimed warm-up item
};

double optional_number(const perf::Json& j, const char* key) {
  const perf::Json* v = j.find(key);
  return v != nullptr ? v->number() : -1;
}

Workload load_workload(const perf::Json& table, const std::string& name) {
  for (const auto& w : table.at("workloads").array()) {
    if (w.string_at("name") != name) continue;
    Workload out;
    out.name = name;
    out.mode = mode_of(w.string_at("mode"));
    const std::string warmup = w.string_at("warmup");
    bool found = false;
    for (const auto& j : w.at("items").array()) {
      Item it;
      it.id = j.string_at("id");
      it.op = op_of(j.string_at("op"));
      it.subject = j.string_at("subject");
      it.nodes = static_cast<int>(j.number_at("nodes"));
      it.ppn = static_cast<int>(j.number_at("ppn"));
      it.bytes = static_cast<std::size_t>(j.number_at("bytes"));
      it.latency_us = optional_number(j, "latency_us");
      it.critical_path_us = optional_number(j, "critical_path_us");
      it.events = optional_number(j, "events");
      if (it.id == warmup) {
        out.warmup = out.items.size();
        found = true;
      }
      out.items.push_back(std::move(it));
    }
    if (out.items.empty()) {
      throw std::invalid_argument("workload '" + name + "' has no items");
    }
    if (!found) {
      throw std::invalid_argument("workload '" + name + "': warm-up item '" +
                                  warmup + "' is not in its item list");
    }
    return out;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Item ids name per-item metrics, so they keep to metric-name characters.
std::vector<std::string> all_item_ids(const perf::Json& table) {
  std::vector<std::string> ids;
  for (const auto& w : table.at("workloads").array()) {
    for (const auto& j : w.at("items").array()) {
      const std::string& id = j.string_at("id");
      for (char c : id) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '-')) {
          throw std::invalid_argument("item id '" + id +
                                      "' may hold only [A-Za-z0-9_-]");
        }
      }
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

// --------------------------------------------------------- driver spans

// One timed call into a layer, in seconds since process start.
struct SpanRec {
  const char* layer;
  int item;  // index into the workload's items
  int pass;
  double t0;
  double t1;
};

class Spans {
 public:
  bool on = false;
  int pass = -1;
  std::vector<SpanRec> recs;

  class Scope {
   public:
    Scope(Spans& s, const char* layer, int item)
        : s_(s), layer_(layer), item_(item), t0_(s.on ? since_start() : 0) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (s_.on) s_.recs.push_back({layer_, item_, s_.pass, t0_, since_start()});
    }

   private:
    Spans& s_;
    const char* layer_;
    int item_;
    double t0_;
  };

  Scope scope(const char* layer, int item) {
    return Scope(*this, layer, item);
  }
};

// Layer names of the spans the driver records; kOsu is indexed like kOps.
constexpr const char* kItem = "item";
constexpr const char* kOsu[] = {"osu.allgather", "osu.allreduce",
                                "osu.alltoall", "osu.reduce_scatter"};

const char* osu_layer(perf::Kind k) { return kOsu[static_cast<int>(k)]; }
constexpr const char* kCriticalPath = "obs.critical_path";
constexpr const char* kOverlap = "obs.overlap";
constexpr const char* kUtilization = "obs.utilization";
constexpr const char* kTimeline = "obs.timeline";
constexpr const char* kSerialize = "perf.serialize";
constexpr const char* kRelease = "trace.release";

// ------------------------------------------------------------ item runs

struct ItemOutput {
  double latency_us = 0;
  double critical_path_us = -1;
  double events = -1;
  std::size_t spans = 0;
  std::size_t samples = 0;
  std::size_t cp_steps = 0;
};

coll::AllgatherFn allgather_fn(const std::string& subject) {
  if (subject.rfind("algo:", 0) == 0) {
    return osu::pinned_allgather(subject.substr(5));
  }
  return profiles::by_name(subject).allgather;
}

coll::AllreduceFn allreduce_fn(const std::string& subject) {
  if (subject.rfind("algo:", 0) == 0) {
    return osu::pinned_allreduce(subject.substr(5));
  }
  return profiles::by_name(subject).allreduce;
}

coll::AlltoallFn alltoall_fn(const std::string& subject) {
  if (subject.rfind("algo:", 0) == 0) {
    return osu::pinned_alltoall(subject.substr(5));
  }
  throw std::invalid_argument("alltoall subject '" + subject +
                              "' (expected \"algo:<name>\")");
}

coll::ReduceScatterFn reduce_scatter_fn(const std::string& subject) {
  if (subject.rfind("algo:", 0) == 0) {
    return osu::pinned_reduce_scatter(subject.substr(5));
  }
  throw std::invalid_argument("reduce_scatter subject '" + subject +
                              "' (expected \"algo:<name>\")");
}

double measure(const Item& it, obs::Sink& sink) {
  const auto spec = hw::ClusterSpec::thor(it.nodes, it.ppn);
  switch (it.op) {
    case perf::Kind::kAllgather:
      return osu::measure_allgather(spec, allgather_fn(it.subject), it.bytes,
                                    sink);
    case perf::Kind::kAllreduce:
      return osu::measure_allreduce(spec, allreduce_fn(it.subject), it.bytes,
                                    sink);
    case perf::Kind::kAlltoall:
      return osu::measure_alltoall(spec, alltoall_fn(it.subject), it.bytes,
                                   sink);
    case perf::Kind::kReduceScatter:
      return osu::measure_reduce_scatter(spec, reduce_scatter_fn(it.subject),
                                         it.bytes, sink);
    default:
      throw std::logic_error("not a collective kind");
  }
}

// The campaign runner's per-invocation work (perf::run_scenario's
// collective_metrics and decision scan), each analysis timed as its own
// layer, plus the timeline build and serialization of the item's record.
ItemOutput run_analyzed(const Item& it, int idx, Spans& spans) {
  ItemOutput out;
  auto tracer = std::make_unique<trace::Tracer>();
  auto metrics = std::make_unique<obs::Metrics>();
  auto samples = std::make_unique<std::vector<obs::ResourceSample>>();
  obs::CollectSink sink(tracer.get(), metrics.get(), samples.get());
  double seconds = 0;
  {
    auto s = spans.scope(osu_layer(it.op), idx);
    seconds = measure(it, sink);
  }
  out.latency_us = seconds * 1e6;
  out.spans = tracer->spans().size();
  out.samples = samples->size();

  perf::PointResult pt;
  pt.x = it.bytes;
  pt.metrics["latency_us"] = out.latency_us;
  {
    auto s = spans.scope(kCriticalPath, idx);
    const auto cp = obs::analyze_critical_path(tracer->spans());
    out.critical_path_us = static_cast<double>(cp.total) * 1e6;
    out.cp_steps = cp.steps.size();
    pt.metrics["critical_path_us"] = out.critical_path_us;
    for (const auto& [phase, dur] : cp.by_phase) {
      pt.metrics["cp_phase_" + phase + "_us"] = static_cast<double>(dur) * 1e6;
    }
    for (const auto& [kind, dur] : cp.by_kind) {
      pt.metrics["cp_kind_" + kind + "_us"] = static_cast<double>(dur) * 1e6;
    }
    for (const auto& st : cp.steps) {
      const char* cls = obs::names::span_resource_class(st.kind, st.label);
      if (*cls == '\0') continue;
      const double dur = static_cast<double>(st.t1 - st.t0) * 1e6;
      pt.metrics["cp_class_" + std::string(cls) + "_us"] += dur;
      if (!st.phase.empty()) {
        pt.metrics["cp_cell_" + st.phase + "_" + cls + "_us"] += dur;
      }
    }
  }
  {
    auto s = spans.scope(kOverlap, idx);
    pt.metrics["overlap_fraction"] =
        obs::phase_overlap_fraction(tracer->spans());
  }
  {
    auto s = spans.scope(kUtilization, idx);
    const auto util =
        obs::analyze_utilization(tracer->spans(), *samples, seconds);
    if (!util.rails.empty()) {
      pt.metrics["rail_imbalance"] = util.rail_imbalance;
      std::map<int, double> busy_by_rail;
      for (const auto& r : util.rails) busy_by_rail[r.rail] += r.busy_frac;
      for (const auto& [rail, busy] : busy_by_rail) {
        pt.metrics["rail" + std::to_string(rail) + "_busy_frac"] = busy;
      }
    }
  }
  {
    auto s = spans.scope(kTimeline, idx);
    const auto tl = obs::build_timeline(tracer->spans(), *samples, seconds);
    pt.metrics["timeline_tracks"] = static_cast<double>(tl.tracks.size());
  }
  {
    // The record: counter totals, the per-rail byte split and the selector
    // decisions found among the spans, then the report JSON.
    auto s = spans.scope(kSerialize, idx);
    pt.metrics["net_rail_bytes"] = metrics->counter_total("net.rail.bytes");
    pt.metrics["net_retries"] = metrics->counter_total("net.retries");
    pt.metrics["net_restripes"] = metrics->counter_total("net.restripes");
    pt.metrics["shm_copy_bytes"] = metrics->counter_total("shm.copy_bytes");
    for (const auto& [key, value] : metrics->counters()) {
      if (key.name != "net.rail.bytes") continue;
      for (const auto& [lk, lv] : key.labels) {
        if (lk == "rail") pt.metrics["net_rail" + lv + "_bytes"] += value;
      }
    }
    std::vector<std::string> decisions;
    for (const auto& sp : tracer->spans()) {
      if (sp.label.rfind("select:", 0) != 0) continue;
      std::string d = sp.label.substr(7);
      if (std::find(decisions.begin(), decisions.end(), d) == decisions.end()) {
        decisions.push_back(std::move(d));
      }
    }
    std::sort(decisions.begin(), decisions.end());
    for (const auto& d : decisions) {
      if (!pt.decision.empty()) pt.decision += "; ";
      pt.decision += d;
    }
    perf::Report report;
    report.label = "hostbench";
    report.campaign = "hostbench";
    perf::ScenarioResult res;
    res.scenario.id = it.id;
    res.scenario.kind = it.op;
    res.scenario.subject = it.subject;
    res.scenario.nodes = it.nodes;
    res.scenario.ppn = it.ppn;
    res.scenario.xs = {it.bytes};
    res.points.push_back(std::move(pt));
    report.scenarios.push_back(std::move(res));
    std::ostringstream os;
    perf::write_report_json(os, report);
    if (os.tellp() <= 0) throw std::runtime_error("empty item record");
  }
  {
    auto s = spans.scope(kRelease, idx);
    tracer.reset();
    metrics.reset();
    samples.reset();
  }
  return out;
}

ItemOutput run_item(const Workload& w, int idx, Spans& spans) {
  const Item& it = w.items[static_cast<std::size_t>(idx)];
  switch (w.mode) {
    case Mode::kAnalyzed:
      return run_analyzed(it, idx, spans);
    case Mode::kCounted: {
      if (it.op != perf::Kind::kAllgather) {
        throw std::invalid_argument(it.id + ": counted items are allgathers");
      }
      ItemOutput out;
      auto s = spans.scope(osu_layer(it.op), idx);
      const auto run = osu::measure_allgather_counted(
          hw::ClusterSpec::thor(it.nodes, it.ppn), allgather_fn(it.subject),
          it.bytes);
      out.latency_us = run.sim_seconds * 1e6;
      out.events = static_cast<double>(run.events);
      return out;
    }
    case Mode::kPlain: {
      ItemOutput out;
      auto s = spans.scope(osu_layer(it.op), idx);
      out.latency_us = measure(it, obs::null_sink()) * 1e6;
      return out;
    }
  }
  throw std::logic_error("unreachable mode");
}

// Simulated outputs agree with the table to 1e-9 relative (the committed
// seeds carry nine significant digits); event counts agree exactly.
bool close_to(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(std::abs(want), 1e-12);
}

std::string check(const Item& it, const ItemOutput& out) {
  std::ostringstream err;
  if (it.latency_us < 0) {
    err << "no expected latency_us";
  } else if (!close_to(out.latency_us, it.latency_us)) {
    err << "latency_us " << out.latency_us << " != " << it.latency_us;
  }
  if (it.critical_path_us >= 0 &&
      !close_to(out.critical_path_us, it.critical_path_us)) {
    err << " critical_path_us " << out.critical_path_us
        << " != " << it.critical_path_us;
  }
  if (it.events >= 0 && out.events != it.events) {
    err << " events " << out.events << " != " << it.events;
  }
  return err.str();
}

// --------------------------------------------------------------- probes

double read_vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// Returns freed heap to the kernel, then resets the kernel's RSS
// high-water mark to the current RSS, so the next VmHWM reading is the peak
// of what runs in between. Throws when the kernel refuses the reset: VmHWM
// would then be the running process peak, not the item's.
void reset_vm_hwm() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  if (!f) {
    throw std::runtime_error(
        "cannot reset the RSS high-water mark through /proc/self/clear_refs");
  }
}

sim::Task<void> sleeper(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(1e-6);
}

// Event-queue throughput: 256 sleeper tasks x 100 hops per round (the
// micro_sim shape), repeated for at least `min_s` seconds.
double queue_events_per_s(double min_s) {
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  double el = 0;
  do {
    sim::Engine eng;
    for (int i = 0; i < 256; ++i) eng.spawn(sleeper(eng, 100));
    eng.run();
    events += eng.events_dispatched();
    el = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (el < min_s);
  return static_cast<double>(events) / el;
}

sim::Task<void> one_flow(sim::FluidNetwork& net, sim::ResourceId r) {
  sim::FlowSpec f;
  f.uses = {{r, 1.0}};
  f.bytes = 1000.0;
  co_await net.transfer(std::move(f));
}

// Fluid-solver throughput: 512 flows sharing one link per round (the
// micro_sim shape), repeated for at least `min_s` seconds.
double fluid_flows_per_s(double min_s) {
  std::uint64_t flows = 0;
  const auto t0 = Clock::now();
  double el = 0;
  do {
    sim::Engine eng;
    sim::FluidNetwork net(eng);
    const auto r = net.add_resource("link", 1e9);
    for (int i = 0; i < 512; ++i) eng.spawn(one_flow(net, r));
    eng.run();
    flows += 512;
    el = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (el < min_s);
  return static_cast<double>(flows) / el;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ------------------------------------------------------------------- run

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void write_chrome_trace(const std::string& path, const Spans& spans,
                        const Workload& w) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file '" + path + "'");
  f << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& r : spans.recs) {
    f << (first ? "\n" : ",\n") << "{\"name\": \"" << r.layer
      << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
      << num(r.t0 * 1e6) << ", \"dur\": " << num((r.t1 - r.t0) * 1e6)
      << ", \"args\": {\"item\": \""
      << w.items[static_cast<std::size_t>(r.item)].id
      << "\", \"pass\": " << r.pass << "}}";
    first = false;
  }
  f << "\n]}\n";
}

// Record mode: one line of measured outputs per item, in table order.
int record(const Workload& w) {
  Spans spans;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const auto t0 = Clock::now();
    const ItemOutput out = run_item(w, static_cast<int>(i), spans);
    const double host_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::cout << "{\"id\": \"" << w.items[i].id
              << "\", \"latency_us\": " << num(out.latency_us);
    if (out.critical_path_us >= 0) {
      std::cout << ", \"critical_path_us\": " << num(out.critical_path_us);
    }
    if (out.events >= 0) std::cout << ", \"events\": " << num(out.events);
    std::cout << ", \"host_s\": " << num(host_s) << "}" << std::endl;
  }
  return 0;
}

int run(const Options& opt) {
  core::register_core_algorithms();
  Spans spans;

  // Set-up, from process start: registration above, the table parse and
  // the workload's warm-up item, untimed.
  const double parse0 = since_start();
  const perf::Json table = perf::parse_json_file(opt.table);
  const double parse_s = since_start() - parse0;
  const Workload w = load_workload(table, opt.workload);
  const std::vector<std::string> all_ids = all_item_ids(table);
  if (opt.record) return record(w);
  try {
    (void)run_item(w, static_cast<int>(w.warmup), spans);
  } catch (const std::exception&) {
    // The timed passes run and count the same item.
  }
  const double setup_s = since_start();
  if (opt.setup_only) {
    std::cout << "{\"setup_s\": " << num(setup_s) << "}" << std::endl;
    return 0;
  }

  const std::size_t n = w.items.size();
  std::mt19937_64 rng(opt.seed);
  std::vector<int> order(n);

  std::vector<double> item_s;
  std::vector<double> pass_s;         // untraced passes
  std::vector<double> traced_pass_s;  // traced passes (trace run only)
  std::vector<double> item_hwm_mb(n, 0);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t events_per_pass = 0;
  std::size_t spans_per_pass = 0;
  std::size_t samples_per_pass = 0;
  std::size_t cp_steps_per_pass = 0;

  // Whole passes only, so every item has the same number of timings; stop
  // before a pass that would overrun --seconds once 100 items have run.
  const double measure_t0 = since_start();
  double last_pass = 0;
  for (int pass = 0;; ++pass) {
    const double elapsed = since_start() - measure_t0;
    if (pass > 0 && item_s.size() >= 100 && elapsed + last_pass > opt.seconds) {
      break;
    }

    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(rng() % (i + 1))]);
    }
    // The traced run starts with one memory pass (per-item peak RSS, kept
    // out of every timing), then alternates untraced and span-recording
    // passes so the tracing overhead is measured in the same process.
    const bool memory = opt.trace && pass == 0;
    const bool traced = opt.trace && pass % 2 == 0 && pass > 0;
    spans.on = traced;
    spans.pass = pass;
    std::uint64_t events = 0;
    std::size_t nspans = 0, nsamples = 0, cp_steps = 0;
    const double p0 = since_start();
    for (int idx : order) {
      const Item& it = w.items[static_cast<std::size_t>(idx)];
      if (memory) reset_vm_hwm();
      const double t0 = since_start();
      std::string err;
      {
        auto s = spans.scope(kItem, idx);
        try {
          const ItemOutput out = run_item(w, idx, spans);
          err = check(it, out);
          if (out.events > 0) events += static_cast<std::uint64_t>(out.events);
          nspans += out.spans;
          nsamples += out.samples;
          cp_steps += out.cp_steps;
        } catch (const std::exception& e) {
          err = std::string("threw: ") + e.what();
        }
      }
      if (memory) {
        item_hwm_mb[static_cast<std::size_t>(idx)] = read_vm_hwm_mb();
      } else {
        item_s.push_back(since_start() - t0);
      }
      ++attempted;
      if (!err.empty()) {
        ++failed;
        std::cerr << "hostbench: item " << it.id << " failed: " << err << '\n';
      }
    }
    last_pass = since_start() - p0;
    if (!memory) (traced ? traced_pass_s : pass_s).push_back(last_pass);
    events_per_pass = events;
    spans_per_pass = nspans;
    samples_per_pass = nsamples;
    cp_steps_per_pass = cp_steps;
  }
  spans.on = false;

  std::vector<Metric> m;
  bool correct = failed == 0;
  if (!opt.trace) {
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"pass_s", median(pass_s), "s"});
    m.push_back({"item_ms_p50", quantile(item_s, 0.5) * 1e3, "ms"});
    m.push_back({"item_ms_p90", quantile(item_s, 0.9) * 1e3, "ms"});
    m.push_back({"peak_rss_mb", read_vm_hwm_mb(), "MiB"});
  } else {
    // Per-layer busy time per traced pass (median over traced passes).
    std::map<std::string, std::vector<double>> busy;
    const std::size_t tp = traced_pass_s.size();
    auto per_pass = [&](const std::string& layer) -> std::vector<double>& {
      auto& v = busy[layer];
      if (v.empty()) v.assign(tp, 0);
      return v;
    };
    for (const auto& r : spans.recs) {
      const auto k = static_cast<std::size_t>(r.pass / 2 - 1);
      const double d = r.t1 - r.t0;
      std::string layer = r.layer;
      per_pass(layer)[k] += d;
      if (layer.rfind("osu.", 0) == 0) per_pass("osu")[k] += d;
      if (layer != kItem) per_pass("layers")[k] += d;
    }
    auto busy_s = [&](const std::string& layer) {
      auto it = busy.find(layer);
      return it == busy.end() ? 0.0 : median(it->second);
    };
    const double traced = median(traced_pass_s);
    const double untraced = median(pass_s);
    const double coverage = traced > 0 ? busy_s("layers") / traced : 0;
    const double per_item = 1.0 / static_cast<double>(n);

    m.push_back({"osu.busy_s", busy_s("osu"), "s"});
    m.push_back({"osu.share", traced > 0 ? busy_s("osu") / traced : 0,
                 "ratio"});
    m.push_back({"osu.items", static_cast<double>(n), "count"});
    for (const char* layer : kOsu) {
      m.push_back({std::string(layer) + ".busy_s", busy_s(layer), "s"});
    }
    const double counted_busy = busy_s("osu.allgather");
    m.push_back({"sim.events", static_cast<double>(events_per_pass), "count"});
    m.push_back({"sim.events_per_s",
                 counted_busy > 0 && events_per_pass > 0
                     ? static_cast<double>(events_per_pass) / counted_busy
                     : 0,
                 "1/s"});
    m.push_back({"sim.queue_events_per_s", queue_events_per_s(1.0), "1/s"});
    m.push_back({"sim.fluid_flows_per_s", fluid_flows_per_s(1.0), "1/s"});
    m.push_back({"trace.spans_per_item",
                 static_cast<double>(spans_per_pass) * per_item, "count"});
    m.push_back({"obs.samples_per_item",
                 static_cast<double>(samples_per_pass) * per_item, "count"});
    m.push_back({"obs.critical_path.busy_s", busy_s(kCriticalPath), "s"});
    m.push_back({"obs.critical_path.share",
                 traced > 0 ? busy_s(kCriticalPath) / traced : 0, "ratio"});
    m.push_back({"obs.critical_path.steps",
                 static_cast<double>(cp_steps_per_pass), "count"});
    m.push_back({"obs.utilization.busy_s", busy_s(kUtilization), "s"});
    m.push_back({"obs.timeline.busy_s", busy_s(kTimeline), "s"});
    m.push_back({"obs.overlap.busy_s", busy_s(kOverlap), "s"});
    m.push_back({"trace.release.busy_s", busy_s(kRelease), "s"});
    m.push_back({"perf.parse.busy_s", parse_s, "s"});
    m.push_back({"perf.serialize.busy_s", busy_s(kSerialize), "s"});
    m.push_back({"trace.pass_s", traced, "s"});
    m.push_back({"trace.overhead",
                 untraced > 0 ? traced / untraced - 1 : 0, "ratio"});
    m.push_back({"trace.coverage", coverage, "ratio"});
    // Every item of every workload, so all workloads print one metric set;
    // items outside this workload read 0.
    for (const auto& id : all_ids) {
      double hwm = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (w.items[i].id == id) hwm = item_hwm_mb[i];
      }
      m.push_back({"osu.peak_rss_mb." + id, hwm, "MiB"});
    }
    if (coverage < 0.9) {
      std::cerr << "hostbench: layer spans cover only " << coverage
                << " of the traced pass time (need >= 0.9)\n";
      correct = false;
    }
    if (!opt.trace_out.empty()) write_chrome_trace(opt.trace_out, spans, w);
  }

  std::cerr << "hostbench: workload " << w.name << ", seed " << opt.seed
            << ": " << attempted << " items in "
            << pass_s.size() + traced_pass_s.size() << " passes ("
            << item_s.size() << " item timings), " << failed << " failed\n"
            << "hostbench: untraced pass_s";
  for (double p : pass_s) std::cerr << ' ' << num(p);
  std::cerr << '\n';
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << '\n';
    return 2;
  }
}
