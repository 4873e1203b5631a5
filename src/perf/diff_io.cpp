#include "perf/diff_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "hw/spec.hpp"
#include "obs/names.hpp"
#include "osu/stats.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hmca::perf {

namespace {

/// Reverse of trace::kind_name; throws on unknown names so a corrupted
/// trace fails loudly instead of silently reclassifying spans.
trace::Kind kind_of_name(const std::string& name) {
  constexpr trace::Kind kKinds[] = {
      trace::Kind::kIsend,   trace::Kind::kIrecv,   trace::Kind::kWait,
      trace::Kind::kCopyIn,  trace::Kind::kCopyOut, trace::Kind::kCmaCopy,
      trace::Kind::kNicXfer, trace::Kind::kCompute, trace::Kind::kPhase,
      trace::Kind::kTask,
  };
  for (const trace::Kind k : kKinds) {
    if (name == trace::kind_name(k)) return k;
  }
  throw std::invalid_argument("unknown span kind '" + name + "' in trace");
}

std::string rail_key(double node, double rail) {
  return "node" + std::to_string(static_cast<int>(node)) + "/rail" +
         std::to_string(static_cast<int>(rail));
}

double number_or(const Json& obj, const char* key, double fallback) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

template <class T>
T integer_or(const Json& obj, const char* key, T fallback) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->integer<T>() : fallback;
}

std::string string_or(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string() : std::string{};
}

}  // namespace

Json parse_json_or_transcript(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  try {
    return Json::parse(text);
  } catch (const JsonError&) {
    const std::string::size_type brace = text.rfind("\n{\n");
    if (brace == std::string::npos) throw;
    return Json::parse(std::string_view(text).substr(brace + 1));
  }
}

std::string sniff_artifact(const Json& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("artifact is not a JSON object");
  }
  const Json* format = doc.find("format");
  if (format != nullptr && format->is_string() &&
      format->string() == "hmca-bench-1") {
    return "bench";
  }
  if (doc.find("traceEvents") != nullptr) return "trace";
  if (doc.find("bench") != nullptr && doc.find("invocations") != nullptr) {
    return "stats";
  }
  std::string keys;
  for (const auto& [k, v] : doc.object()) {
    if (!keys.empty()) keys += ", ";
    keys += k;
  }
  throw std::invalid_argument(
      "unrecognized artifact (top-level keys: " + keys +
      "); expected a stats JSON (bench + invocations), a BENCH_*.json "
      "(format hmca-bench-1) or a chrome trace (traceEvents)");
}

LoadedRun load_stats_run(const Json& doc, std::string path) {
  LoadedRun lr;
  lr.path = std::move(path);
  lr.format = "stats";
  lr.label = doc.string_at("bench");
  if (const Json* prov = doc.find("provenance")) {
    for (const auto& [k, v] : prov->object()) {
      lr.provenance.emplace_back(k, v.string());
    }
  }
  for (const auto& inv : doc.at("invocations").array()) {
    obs::RunSummary rs;
    rs.id = lr.label;
    rs.op = inv.string_at("op");
    rs.subject = inv.string_at("subject");
    rs.msg_bytes = inv.number_at("msg_bytes");
    rs.latency_us = inv.number_at("latency_us");
    rs.overlap_fraction = number_or(inv, "phase_overlap_fraction", 0);
    rs.world = string_or(inv, "world");
    if (const Json* decs = inv.find("selector_decisions")) {
      for (const auto& d : decs->array()) rs.decisions.push_back(d.string());
      std::sort(rs.decisions.begin(), rs.decisions.end());
    }

    if (const Json* cp = inv.find("critical_path")) {
      rs.critical_path_us = number_or(*cp, "total_us", 0);
      if (const Json* m = cp->find("by_phase_us")) {
        for (const auto& [phase, v] : m->object()) {
          rs.phase_us[phase] = v.number();
        }
      }
      const Json* steps = cp->find("steps");
      if (steps != nullptr && !steps->array().empty()) {
        // Resource classes from the path steps (task-aware: a kTask step
        // classifies by its label's task-kind token); task time from the
        // same walk — path task time, consistent on both diff sides.
        for (const auto& st : steps->array()) {
          const std::string kind = string_or(st, "kind");
          const std::string label = string_or(st, "label");
          const double dur = number_or(st, "dur_us", 0);
          const char* cls = "";
          if (kind == "task") {
            rs.task_us[std::string(obs::names::strip_chunk(label))] += dur;
            cls = obs::names::span_resource_class(trace::Kind::kTask, label);
          } else {
            cls = obs::names::resource_class_of_name(kind);
          }
          if (*cls == '\0') continue;
          rs.resource_us[cls] += dur;
          rs.phase_resource_us[string_or(st, "phase")][cls] += dur;
        }
      } else {
        // No steps serialized: fall back to the aggregate tables (kTask
        // time has no label there and stays unclassified).
        if (const Json* m = cp->find("by_kind_us")) {
          for (const auto& [kind, v] : m->object()) {
            const char* cls = obs::names::resource_class_of_name(kind);
            if (*cls != '\0') rs.resource_us[cls] += v.number();
          }
        }
        if (const Json* m = cp->find("by_phase_kind_us")) {
          for (const auto& [phase, kinds] : m->object()) {
            for (const auto& [kind, v] : kinds.object()) {
              const char* cls = obs::names::resource_class_of_name(kind);
              if (*cls != '\0') {
                rs.phase_resource_us[phase][cls] += v.number();
              }
            }
          }
        }
      }
    }

    if (const Json* util = inv.find("utilization")) {
      const double wall_us = number_or(*util, "wall_us", rs.latency_us);
      if (const Json* rails = util->find("rails")) {
        for (const auto& r : rails->array()) {
          const std::string k =
              rail_key(r.number_at("node"), r.number_at("rail"));
          rs.rail_busy_us[k] = r.number_at("busy_frac") * wall_us;
          rs.rail_bytes[k] = r.number_at("bytes");
        }
      }
      if (const Json* rp = util->find("rail_phases")) {
        for (const auto& r : rp->array()) {
          rs.phase_rail_busy_us[r.string_at("phase")]
                               [rail_key(r.number_at("node"),
                                         r.number_at("rail"))] =
              r.number_at("busy_us");
        }
      }
    }

    if (const Json* metrics = inv.find("metrics")) {
      if (const Json* counters = metrics->find("counters")) {
        for (const auto& c : counters->array()) {
          rs.counters[c.string_at("name")] += c.number_at("value");
        }
      }
    }
    lr.runs.push_back(std::move(rs));
  }
  return lr;
}

LoadedRun load_bench_run(const Json& doc, std::string path) {
  LoadedRun lr;
  lr.path = std::move(path);
  lr.format = "bench";
  lr.label = doc.string_at("label");
  lr.provenance.emplace_back("campaign", doc.string_at("campaign"));
  if (const Json* env = doc.find("environment")) {
    for (const auto& [k, v] : env->object()) {
      if (v.is_string()) lr.provenance.emplace_back(k, v.string());
    }
  }
  for (const auto& sc : doc.at("scenarios").array()) {
    const std::string id = sc.string_at("id");
    const std::string kind = sc.string_at("kind");
    const std::string subject = string_or(sc, "subject");
    // Reconstruct the scenario's world exactly as Scenario::spec() builds
    // it, so a bench point and a stats invocation of the same shape carry
    // identical fingerprint strings (faults never enter the fingerprint).
    const int nodes = sc.integer_at<int>("nodes");
    const int ppn = sc.integer_at<int>("ppn");
    const int hcas = sc.integer_at<int>("hcas");
    hw::ClusterSpec spec = hcas > 0 ? hw::ClusterSpec::multi_rail(nodes, ppn,
                                                                  hcas)
                                    : hw::ClusterSpec::thor(nodes, ppn);
    spec = hw::apply_topo(std::move(spec), string_or(sc, "topo"));
    const std::string world = osu::world_fingerprint(spec);

    // The alignment subject is the scenario id (unique per campaign, and
    // it reads like the issue examples: "fig13/64KiB"); a pinned
    // non-default algorithm is appended so forced-algo variants never
    // cross-align with the selector-driven scenario.
    std::string align_subject = id;
    if (!subject.empty() && subject != "mha") align_subject += ":" + subject;

    for (const auto& pt : sc.at("points").array()) {
      std::map<std::string, double> metrics;
      for (const auto& [name, v] : pt.at("metrics").object()) {
        metrics[name] = v.number();
      }
      obs::RunSummary rs = obs::run_summary_from_metrics(
          sc.string_at("figure"), kind, align_subject, pt.number_at("x"),
          metrics, string_or(pt, "decision"));
      rs.world = world;
      lr.runs.push_back(std::move(rs));
    }
  }
  return lr;
}

LoadedRun load_trace_run(const Json& doc, std::string path) {
  LoadedRun lr;
  lr.path = std::move(path);
  lr.format = "trace";
  lr.label = "trace";
  std::vector<trace::Span> spans;
  sim::Time end = 0;
  for (const auto& ev : doc.at("traceEvents").array()) {
    if (string_or(ev, "ph") == "M") continue;
    const Json* args = ev.find("args");
    if (args == nullptr) continue;
    trace::Span s;
    s.rank = integer_or<int>(ev, "tid", 0);
    s.kind = kind_of_name(args->string_at("kind"));
    s.t0 = sim::from_us(ev.number_at("ts"));
    s.t1 = s.t0 + sim::from_us(number_or(ev, "dur", 0));
    s.peer = integer_or<int>(*args, "peer", -1);
    s.bytes = integer_or<std::size_t>(*args, "bytes", 0);
    s.label = string_or(*args, "label");
    end = std::max(end, s.t1);
    spans.push_back(std::move(s));
  }
  // A trace is one invocation's span stream; virtual time starts at zero,
  // so the last span end is the invocation latency.
  lr.runs.push_back(obs::summarize_invocation("trace", "trace", "trace", 0,
                                              spans, {}, nullptr, end));
  return lr;
}

LoadedRun load_run_artifact(const std::string& path) {
  const Json doc = parse_json_or_transcript(path);
  const std::string family = sniff_artifact(doc);
  if (family == "bench") return load_bench_run(doc, path);
  if (family == "trace") return load_trace_run(doc, path);
  return load_stats_run(doc, path);
}

obs::DiffReport diff_artifacts(const std::string& base_path,
                               const std::string& next_path,
                               const obs::DiffOptions& opts) {
  const LoadedRun base = load_run_artifact(base_path);
  const LoadedRun next = load_run_artifact(next_path);
  obs::DiffReport rep = diff_runs(base.runs, next.runs, opts);
  rep.base_label = base_path;
  rep.next_label = next_path;
  rep.base_provenance = base.provenance;
  rep.next_provenance = next.provenance;
  if (base.format != next.format) {
    rep.notes.insert(rep.notes.begin(),
                     "cross-family diff: base is a " + base.format +
                         " artifact, next is a " + next.format +
                         " artifact — only shared margins attribute");
  }
  return rep;
}

}  // namespace hmca::perf
