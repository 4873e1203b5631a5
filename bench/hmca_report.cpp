// hmca-report: render telemetry artifacts into one self-contained report.
//
//   hmca-report [--stats FILE] [--trace FILE] [--bench FILE]
//               [--metric NAME] [--title TITLE] [--out FILE] [--text]
//
// Inputs are the files the rest of the toolchain already writes: a bench
// `--stats=json` report (timelines + utilization ride inside it), a bench
// `--trace` Chrome-trace JSON, and an hmca-bench BENCH_*.json campaign
// report. At least one input is required; each contributes its sections to
// a single HTML dashboard (inline SVG, zero external assets) written to
// --out (default report.html). `--text` renders the same data as plain
// text instead (stdout unless --out is given).
//
// Comparing two artifacts is hmca-diff's job (`hmca-diff BASE NEXT
// --html FILE`).
//
// Exit codes: 0 = report written, 2 = usage / IO / parse errors.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "perf/diff_io.hpp"
#include "perf/json.hpp"

using namespace hmca;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  hmca-report [--stats FILE] [--trace FILE] [--bench FILE]\n"
        "              [--metric NAME] [--title TITLE] [--out FILE] "
        "[--text]\n"
        "\n"
        "  --stats   bench --stats=json output (timeline + utilization;\n"
        "            a full bench transcript with a leading table is fine)\n"
        "  --trace   bench --trace Chrome-trace JSON (span strip)\n"
        "  --bench   hmca-bench BENCH_*.json (latency-vs-size curves)\n"
        "  --metric  bench point metric to plot (default latency_us)\n"
        "  --out     output path (default report.html; stdout for --text)\n"
        "  --text    plain-text report instead of HTML\n";
  return code;
}

/// Flag value: `--flag value` or `--flag=value`.
bool take_value(const std::vector<std::string>& args, std::size_t& i,
                const std::string& flag, std::string& out) {
  const std::string& arg = args[i];
  if (arg == flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(flag + " requires a value");
    }
    out = args[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    out = arg.substr(flag.size() + 1);
    if (out.empty()) throw std::invalid_argument(flag + " requires a value");
    return true;
  }
  return false;
}

obs::Labels parse_labels(const perf::Json& j) {
  obs::Labels out;
  if (j.is_object()) {
    for (const auto& [k, v] : j.object()) out.emplace_back(k, v.string());
  }
  return out;
}

obs::Timeline parse_timeline(const perf::Json& j) {
  obs::Timeline tl;
  tl.buckets = j.integer_at<int>("buckets");
  tl.bucket_seconds = j.number_at("bucket_us") * 1e-6;
  tl.wall = j.number_at("wall_us") * 1e-6;
  for (const auto& t : j.at("tracks").array()) {
    obs::Timeline::Track tr;
    tr.name = t.string_at("name");
    tr.labels = parse_labels(t.at("labels"));
    tr.unit = t.string_at("unit");
    for (const auto& v : t.at("values").array()) {
      tr.values.push_back(v.number());
    }
    tl.tracks.push_back(std::move(tr));
  }
  return tl;
}

obs::Utilization parse_utilization(const perf::Json& j) {
  obs::Utilization u;
  u.wall = j.number_at("wall_us") * 1e-6;
  u.rail_imbalance = j.number_at("rail_imbalance");
  u.phase_overlap = j.number_at("phase_overlap");
  u.cpu_finish = j.number_at("cpu_finish_us") * 1e-6;
  u.nic_finish = j.number_at("nic_finish_us") * 1e-6;
  for (const auto& r : j.at("ranks").array()) {
    obs::Utilization::RankBreakdown rb;
    rb.rank = r.integer_at<int>("rank");
    rb.compute = r.number_at("compute_us") * 1e-6;
    rb.nic = r.number_at("nic_us") * 1e-6;
    rb.shm = r.number_at("shm_us") * 1e-6;
    rb.wait = r.number_at("wait_us") * 1e-6;
    rb.idle = r.number_at("idle_us") * 1e-6;
    u.ranks.push_back(rb);
  }
  for (const auto& r : j.at("rails").array()) {
    obs::Utilization::RailUse ru;
    ru.node = r.integer_at<int>("node");
    ru.rail = r.integer_at<int>("rail");
    ru.busy_frac = r.number_at("busy_frac");
    ru.bytes = r.number_at("bytes");
    u.rails.push_back(ru);
  }
  for (const auto& p : j.at("phases").array()) {
    u.phases.push_back({p.string_at("phase"), p.number_at("mean_occupancy")});
  }
  return u;
}

void load_stats(obs::ReportData& data, const std::string& path) {
  const perf::Json doc = perf::parse_json_or_transcript(path);
  if (data.title.empty()) data.title = doc.string_at("bench");
  data.sources.push_back("stats: " + path);
  for (const auto& inv : doc.at("invocations").array()) {
    obs::ReportData::Invocation out;
    out.subject = inv.string_at("subject");
    out.op = inv.string_at("op");
    out.msg_bytes = inv.number_at("msg_bytes");
    out.latency_us = inv.number_at("latency_us");
    out.overlap = inv.number_at("phase_overlap_fraction");
    if (const perf::Json* tl = inv.find("timeline")) {
      out.timeline = parse_timeline(*tl);
    }
    if (const perf::Json* u = inv.find("utilization")) {
      out.util = parse_utilization(*u);
    }
    data.invocations.push_back(std::move(out));
  }
}

void load_trace(obs::ReportData& data, const std::string& path) {
  const perf::Json doc = perf::parse_json_file(path);
  data.sources.push_back("trace: " + path);
  for (const auto& ev : doc.at("traceEvents").array()) {
    const perf::Json* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string() != "X") continue;
    if (data.trace.size() >= obs::kReportTraceEventCap) {
      ++data.trace_dropped;
      continue;
    }
    obs::ReportData::TraceEvent e;
    e.rank = ev.integer_at<int>("tid");
    e.ts_us = ev.number_at("ts");
    e.dur_us = ev.number_at("dur");
    e.name = ev.string_at("cat");
    data.trace.push_back(std::move(e));
  }
}

void load_bench(obs::ReportData& data, const std::string& path,
                const std::string& metric) {
  const perf::Json doc = perf::parse_json_file(path);
  data.sources.push_back("bench: " + path + " (campaign '" +
                         doc.string_at("campaign") + "', label '" +
                         doc.string_at("label") + "')");
  data.bench_metric = metric;
  for (const auto& sc : doc.at("scenarios").array()) {
    obs::ReportData::BenchSeries series;
    series.name = sc.string_at("id");
    for (const auto& pt : sc.at("points").array()) {
      const perf::Json* m = pt.at("metrics").find(metric);
      if (m == nullptr || !m->is_number()) continue;
      series.points.emplace_back(pt.number_at("x"), m->number());
    }
    if (!series.points.empty()) data.bench.push_back(std::move(series));
  }
}

int run(const std::vector<std::string>& args) {
  std::string stats_path, trace_path, bench_path, out_path, title;
  std::string metric = "latency_us";
  bool text = false;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (take_value(args, i, "--stats", value)) {
      stats_path = value;
    } else if (take_value(args, i, "--trace", value)) {
      trace_path = value;
    } else if (take_value(args, i, "--bench", value)) {
      bench_path = value;
    } else if (take_value(args, i, "--metric", value)) {
      metric = value;
    } else if (take_value(args, i, "--title", value)) {
      title = value;
    } else if (take_value(args, i, "--out", value)) {
      out_path = value;
    } else if (args[i] == "--text") {
      text = true;
    } else if (args[i] == "--help" || args[i] == "help") {
      return usage(std::cout, 0);
    } else {
      throw std::invalid_argument("unknown argument '" + args[i] + "'");
    }
  }
  if (stats_path.empty() && trace_path.empty() && bench_path.empty()) {
    std::cerr << "hmca-report: need at least one of --stats / --trace / "
                 "--bench\n";
    return usage(std::cerr, 2);
  }

  obs::ReportData data;
  data.title = title;
  if (!stats_path.empty()) load_stats(data, stats_path);
  if (!trace_path.empty()) load_trace(data, trace_path);
  if (!bench_path.empty()) load_bench(data, bench_path, metric);
  if (data.title.empty()) data.title = "hmca telemetry report";

  std::ostringstream body;
  if (text) {
    obs::write_text_report(body, data);
  } else {
    obs::write_html_report(body, data);
    if (out_path.empty()) out_path = "report.html";
  }
  if (out_path.empty()) {
    std::cout << body.str();
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "hmca-report: cannot write '" << out_path << "'\n";
    return 2;
  }
  out << body.str();
  std::cerr << "wrote " << out_path << " (" << data.invocations.size()
            << " invocations, " << data.trace.size() << " trace events, "
            << data.bench.size() << " bench series)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return run(args);
  } catch (const perf::JsonError& e) {
    std::cerr << "hmca-report: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "hmca-report: " << e.what() << '\n';
    return 2;
  }
}
