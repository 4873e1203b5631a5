#include "osu/stats.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "osu/harness.hpp"

namespace hmca::osu {

namespace {

std::string us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

std::string fraction(double f) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4f", f);
  return buf;
}

}  // namespace

std::string world_fingerprint(const hw::ClusterSpec& spec) {
  return "nodes=" + std::to_string(spec.nodes) +
         ",ppn=" + std::to_string(spec.ppn) +
         ",hcas=" + std::to_string(spec.hcas_per_node) +
         ",sockets=" + std::to_string(spec.sockets_per_node);
}

StatsSession::StatsSession(StatsOptions opts, std::string bench)
    : opts_(std::move(opts)), bench_(std::move(bench)) {
  provenance_.emplace_back("git_sha", Env::git_sha());
}

void StatsSession::set_provenance(std::string key, std::string value) {
  provenance_.emplace_back(std::move(key), std::move(value));
}

double StatsSession::measure_allgather(const hw::ClusterSpec& spec,
                                       const std::string& subject,
                                       const coll::AllgatherFn& fn,
                                       std::size_t msg) {
  return capture("allgather", osu::measure_allgather, spec, subject, fn, msg);
}

double StatsSession::measure_allreduce(const hw::ClusterSpec& spec,
                                       const std::string& subject,
                                       const coll::AllreduceFn& fn,
                                       std::size_t bytes) {
  return capture("allreduce", osu::measure_allreduce, spec, subject, fn,
                 bytes);
}

double StatsSession::measure_alltoall(const hw::ClusterSpec& spec,
                                      const std::string& subject,
                                      const coll::AlltoallFn& fn,
                                      std::size_t msg) {
  return capture("alltoall", osu::measure_alltoall, spec, subject, fn, msg);
}

double StatsSession::measure_reduce_scatter(const hw::ClusterSpec& spec,
                                            const std::string& subject,
                                            const coll::ReduceScatterFn& fn,
                                            std::size_t bytes) {
  return capture("reduce_scatter", osu::measure_reduce_scatter, spec, subject,
                 fn, bytes);
}

template <class Fn>
double StatsSession::capture(const char* op, Harness<Fn> measure,
                             const hw::ClusterSpec& spec,
                             const std::string& subject, const Fn& fn,
                             std::size_t msg_bytes) {
  if (!enabled()) return measure(spec, fn, msg_bytes, obs::null_sink());
  trace::Tracer tracer;
  obs::Metrics metrics;
  std::vector<obs::ResourceSample> samples;
  obs::CollectSink sink(&tracer, &metrics, &samples);
  const double seconds = measure(spec, fn, msg_bytes, sink);
  InvocationStats rec;
  rec.subject = subject;
  rec.op = op;
  rec.world = world_fingerprint(spec);
  rec.msg_bytes = msg_bytes;
  rec.seconds = seconds;
  rec.decisions = obs::names::decision_labels(tracer.spans());
  rec.overlap_fraction = obs::phase_overlap_fraction(tracer.spans());
  rec.critical_path = obs::analyze_critical_path(tracer.spans());
  rec.timeline = obs::build_timeline(tracer.spans(), samples, seconds);
  rec.util = obs::analyze_utilization(tracer.spans(), samples, seconds);
  rec.metrics = std::move(metrics);
  recs_.push_back(std::move(rec));
  last_spans_ = tracer.take_spans();
  return seconds;
}

void StatsSession::write(std::ostream& os) const {
  switch (opts_.format) {
    case StatsFormat::kText: {
      os << "== stats: " << bench_ << " ==\n";
      for (const auto& r : recs_) {
        os << r.subject << ' ' << r.op << ' ' << format_size(r.msg_bytes)
           << ": " << us(r.seconds) << " us";
        if (!r.decisions.empty()) os << "  [" << r.decisions.front() << ']';
        os << '\n';
        os << "  " << r.critical_path.summary() << '\n';
        if (!r.util.empty()) os << "  " << r.util.summary() << '\n';
        if (r.overlap_fraction > 0) {
          os << "  phase-2/3 overlap: " << fraction(r.overlap_fraction)
             << '\n';
        }
        const double rail = r.metrics.counter_total("net.rail.bytes");
        if (rail > 0) {
          os << "  net rail bytes: " << static_cast<long long>(rail)
             << ", retries: "
             << static_cast<long long>(r.metrics.counter_total("net.retries"))
             << ", restripes: "
             << static_cast<long long>(
                    r.metrics.counter_total("net.restripes"))
             << '\n';
        }
      }
      break;
    }
    case StatsFormat::kJson: {
      os << "{\n  \"bench\": \"" << obs::json_escape(bench_)
         << "\",\n  \"provenance\": {";
      for (std::size_t i = 0; i < provenance_.size(); ++i) {
        os << (i == 0 ? "" : ", ") << '"'
           << obs::json_escape(provenance_[i].first) << "\": \""
           << obs::json_escape(provenance_[i].second) << '"';
      }
      os << "},\n  \"invocations\": [";
      bool first = true;
      for (const auto& r : recs_) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\n";
        os << "      \"subject\": \"" << obs::json_escape(r.subject)
           << "\",\n";
        os << "      \"op\": \"" << r.op << "\",\n";
        os << "      \"world\": \"" << obs::json_escape(r.world) << "\",\n";
        os << "      \"msg_bytes\": " << r.msg_bytes << ",\n";
        os << "      \"latency_us\": " << us(r.seconds) << ",\n";
        os << "      \"selector_decisions\": [";
        for (std::size_t i = 0; i < r.decisions.size(); ++i) {
          os << (i == 0 ? "" : ", ") << '"' << obs::json_escape(r.decisions[i])
             << '"';
        }
        os << "],\n";
        os << "      \"phase_overlap_fraction\": "
           << fraction(r.overlap_fraction) << ",\n";
        os << "      \"critical_path\":\n";
        r.critical_path.write_json(os, 6);
        os << ",\n      \"metrics\":\n";
        r.metrics.write_json(os, 6);
        os << ",\n      \"timeline\":\n";
        r.timeline.write_json(os, 6);
        os << ",\n      \"utilization\":\n";
        r.util.write_json(os, 6);
        os << "\n    }";
      }
      if (!first) os << '\n' << "  ";
      os << "]\n}\n";
      break;
    }
    case StatsFormat::kCsv: {
      os << "bench,subject,op,msg_bytes,latency_us,decision,dominant_kind,"
            "dominant_phase,critical_path_us,overlap_fraction,"
            "net_rail_bytes,net_retries,net_restripes,shm_copy_bytes\n";
      for (const auto& r : recs_) {
        os << bench_ << ',' << r.subject << ',' << r.op << ',' << r.msg_bytes
           << ',' << us(r.seconds) << ','
           << (r.decisions.empty() ? "" : r.decisions.front()) << ','
           << r.critical_path.dominant_kind << ','
           << r.critical_path.dominant_phase << ','
           << us(r.critical_path.total) << ','
           << fraction(r.overlap_fraction) << ','
           << static_cast<long long>(
                  r.metrics.counter_total("net.rail.bytes"))
           << ','
           << static_cast<long long>(r.metrics.counter_total("net.retries"))
           << ','
           << static_cast<long long>(
                  r.metrics.counter_total("net.restripes"))
           << ','
           << static_cast<long long>(
                  r.metrics.counter_total("shm.copy_bytes"))
           << '\n';
      }
      break;
    }
  }
}

void StatsSession::write_trace(std::ostream& os) const {
  obs::write_chrome_trace(os, last_spans_);
}

void StatsSession::write_report(std::ostream& os) const {
  obs::ReportData data;
  data.title = bench_;
  data.sources.push_back("captured in-process (" +
                         std::to_string(recs_.size()) + " invocations)");
  for (const auto& r : recs_) {
    obs::ReportData::Invocation inv;
    inv.subject = r.subject;
    inv.op = r.op;
    inv.msg_bytes = static_cast<double>(r.msg_bytes);
    inv.latency_us = r.seconds * 1e6;
    inv.overlap = r.overlap_fraction;
    inv.timeline = r.timeline;
    inv.util = r.util;
    data.invocations.push_back(std::move(inv));
  }
  // Span strip: the last measured invocation (same choice as --trace).
  for (const auto& s : last_spans_) {
    if (s.kind == trace::Kind::kPhase) continue;
    if (data.trace.size() >= obs::kReportTraceEventCap) {
      ++data.trace_dropped;
      continue;
    }
    data.trace.push_back({s.rank, sim::to_us(s.t0), sim::to_us(s.t1 - s.t0),
                          trace::kind_name(s.kind)});
  }
  obs::write_html_report(os, data);
}

void StatsSession::finish(std::ostream& os) const {
  if (opts_.enabled) write(os);
  if (!opts_.trace_path.empty()) {
    std::ofstream out(opts_.trace_path);
    if (!out) {
      std::cerr << "hmca: cannot write trace file '" << opts_.trace_path
                << "'\n";
    } else {
      write_trace(out);
      std::cerr << "trace written to " << opts_.trace_path
                << " (load in Perfetto or chrome://tracing)\n";
    }
  }
  if (!opts_.report_path.empty()) {
    std::ofstream out(opts_.report_path);
    if (!out) {
      std::cerr << "hmca: cannot write report file '" << opts_.report_path
                << "'\n";
    } else {
      write_report(out);
      std::cerr << "report written to " << opts_.report_path
                << " (self-contained HTML)\n";
    }
  }
}

}  // namespace hmca::osu
