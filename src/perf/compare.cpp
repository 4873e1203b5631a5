#include "perf/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

namespace hmca::perf {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string fmt_pct(double f) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%+.2f%%", f * 100);
  return buf;
}

void check_format(const Json& doc, const char* which) {
  const Json* f = doc.find("format");
  if (f == nullptr || !f->is_string() || f->string() != "hmca-bench-1") {
    throw JsonError(std::string(which) +
                    ": not an hmca-bench report (format != \"hmca-bench-1\")");
  }
}

/// Scenario array -> id-keyed index, preserving file order for iteration.
std::map<std::string, const Json*> index_scenarios(const Json& doc,
                                                   const char* which) {
  std::map<std::string, const Json*> out;
  const Json* scenarios = doc.find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array()) {
    throw JsonError(std::string(which) + ": missing \"scenarios\" array");
  }
  for (const Json& sc : scenarios->array()) {
    out.emplace(sc.string_at("id"), &sc);
  }
  return out;
}

std::map<std::size_t, const Json*> index_points(const Json& scenario) {
  std::map<std::size_t, const Json*> out;
  for (const Json& pt : scenario.at("points").array()) {
    out.emplace(pt.integer_at<std::size_t>("x"), &pt);
  }
  return out;
}

/// A point's flat metric object as the map run_summary_from_metrics eats.
std::map<std::string, double> metric_map(const Json& metrics) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : metrics.object()) {
    if (v.is_number()) out[name] = v.number();
  }
  return out;
}

struct Differ {
  const CompareOptions& opts;
  CompareResult& result;
  /// Points whose latency drifted, queued for the attribution pass.
  std::vector<obs::RunSummary> drifted_base;
  std::vector<obs::RunSummary> drifted_next;

  Finding::Level drift_level() const {
    return opts.bless ? Finding::Level::kBlessed : Finding::Level::kFail;
  }

  void add(Finding::Level level, std::string scenario, std::string text) {
    result.findings.push_back({level, std::move(scenario), std::move(text)});
  }

  bool within_epsilon(double a, double b) const {
    const double diff = std::abs(a - b);
    return diff <= opts.epsilon_abs ||
           diff <= opts.epsilon_rel * std::max(std::abs(a), std::abs(b));
  }

  /// Compare two metric objects ({"name": number, ...}).
  void diff_metrics(const std::string& id, const std::string& where,
                    const Json& base, const Json& next) {
    for (const auto& [name, bv] : base.object()) {
      const Json* nv = next.find(name);
      if (nv == nullptr) {
        add(drift_level(), id, where + ": metric '" + name +
                                   "' disappeared (base " + fmt(bv.number()) +
                                   ")");
        continue;
      }
      ++result.metrics_compared;
      const double b = bv.number();
      const double n = nv->number();
      if (within_epsilon(b, n)) continue;
      const double rel = b != 0 ? (n - b) / std::abs(b) : 0;
      const bool latency_like = name.find("latency") != std::string::npos ||
                                name.find("_us") != std::string::npos;
      const char* direction =
          latency_like ? (n > b ? "regression" : "improvement")
                       : (name.rfind("bandwidth", 0) == 0
                              ? (n < b ? "regression" : "improvement")
                              : "change");
      add(drift_level(), id,
          where + ": " + name + " " + fmt(b) + " -> " + fmt(n) + " (" +
              fmt_pct(rel) + ", " + direction +
              ") — simulated metrics are deterministic; acknowledge model "
              "changes with --bless");
    }
    for (const auto& [name, nv] : next.object()) {
      if (base.find(name) == nullptr) {
        add(drift_level(), id, where + ": new metric '" + name + "' (" +
                                   fmt(nv.number()) + ") not in baseline");
      }
    }
  }

  void diff_scenario(const std::string& id, const Json& base,
                     const Json& next) {
    ++result.scenarios_compared;
    // Shape fields must agree or the curves are not comparable at all.
    for (const char* field : {"kind", "subject", "faults"}) {
      const std::string b = base.string_at(field);
      const std::string n = next.string_at(field);
      if (b != n) {
        add(drift_level(), id, std::string(field) + " changed: '" + b +
                                   "' -> '" + n + "'");
      }
    }
    for (const char* field : {"nodes", "ppn", "hcas", "msg_bytes"}) {
      const double b = base.number_at(field);
      const double n = next.number_at(field);
      if (b != n) {
        add(drift_level(), id,
            std::string(field) + " changed: " + fmt(b) + " -> " + fmt(n));
      }
    }
    const Json* bd = base.find("derived");
    const Json* nd = next.find("derived");
    if (bd != nullptr && nd != nullptr) {
      diff_metrics(id, "derived", *bd, *nd);
    } else if (bd != nullptr || nd != nullptr) {
      add(drift_level(), id,
          std::string("derived metrics ") +
              (bd != nullptr ? "disappeared" : "appeared"));
    }
    const auto base_pts = index_points(base);
    const auto next_pts = index_points(next);
    for (const auto& [x, bpt] : base_pts) {
      const auto it = next_pts.find(x);
      if (it == next_pts.end()) {
        add(drift_level(), id,
            "sweep point x=" + std::to_string(x) + " disappeared");
        continue;
      }
      diff_metrics(id, "x=" + std::to_string(x), bpt->at("metrics"),
                   it->second->at("metrics"));
      queue_attribution(id, base, static_cast<double>(x), *bpt, *it->second);
    }
    for (const auto& [x, npt] : next_pts) {
      (void)npt;
      if (base_pts.find(x) == base_pts.end()) {
        add(drift_level(), id,
            "new sweep point x=" + std::to_string(x) + " not in baseline");
      }
    }
  }

  /// When a point's latency drifted beyond epsilon, queue both sides for
  /// the attribution pass — the drift finding says *that* it moved, the
  /// attribution says where (phase/resource/rail/decision).
  void queue_attribution(const std::string& id, const Json& scenario,
                         double x, const Json& bpt, const Json& npt) {
    if (opts.attribution_top_k <= 0) return;
    const Json* bl = bpt.at("metrics").find("latency_us");
    const Json* nl = npt.at("metrics").find("latency_us");
    if (bl == nullptr || nl == nullptr || !bl->is_number() ||
        !nl->is_number() || within_epsilon(bl->number(), nl->number())) {
      return;
    }
    const auto point_summary = [&](const Json& pt) {
      const Json* dec = pt.find("decision");
      return obs::run_summary_from_metrics(
          scenario.string_at("figure"), scenario.string_at("kind"), id, x,
          metric_map(pt.at("metrics")),
          dec != nullptr && dec->is_string() ? dec->string() : "");
    };
    drifted_base.push_back(point_summary(bpt));
    drifted_next.push_back(point_summary(npt));
  }

  /// Run the queued attribution and surface each drifted point's headline
  /// plus top-k margins as info findings (attribution explains, it never
  /// gates — the drift finding already did).
  void attribute_drift() {
    if (drifted_base.empty()) return;
    obs::DiffOptions dopts;
    dopts.top_k = opts.attribution_top_k;
    result.attribution = obs::diff_runs(drifted_base, drifted_next, dopts);
    for (const auto& inv : result.attribution.invocations) {
      add(Finding::Level::kInfo, inv.subject,
          "attribution: " + inv.headline());
      int shown = 0;
      for (const auto& a : inv.attributions) {
        if (shown >= opts.attribution_top_k) break;
        std::string line = "  " + a.category + " " + a.name;
        if (a.unit == "us") {
          char buf[48];
          std::snprintf(buf, sizeof buf, ": %+.3f us", a.delta);
          line += buf;
          if (a.share != 0) {
            std::snprintf(buf, sizeof buf, " (%.0f%% of delta)",
                          a.share * 100.0);
            line += buf;
          }
        } else if (a.category == "decision") {
          line += ": " + a.note;
        } else {
          line += ": " + fmt(a.base) + " -> " + fmt(a.next) +
                  (a.unit.empty() ? "" : " " + a.unit);
        }
        add(Finding::Level::kInfo, inv.subject, std::move(line));
        ++shown;
      }
    }
  }

  /// Peak RSS is a high-water mark of one deterministic workload on one
  /// machine class (fingerprints already matched), so it is far steadier
  /// than events/sec — but allocator and kernel variance is real, so only
  /// growth beyond the wall-clock threshold gates.
  void diff_peak_rss(const Json& bw, const Json& nw) {
    const Json* br = bw.find("peak_rss_bytes");
    const Json* nr = nw.find("peak_rss_bytes");
    if (br == nullptr || nr == nullptr || !br->is_number() ||
        !nr->is_number() || br->number() <= 0 || nr->number() <= 0) {
      return;  // older baseline (pre-RSS) or platform without ru_maxrss
    }
    const double rel = (nr->number() - br->number()) / br->number();
    if (rel > opts.wallclock_threshold) {
      add(Finding::Level::kFail, "",
          "wallclock: peak RSS grew " + fmt_pct(rel) + " (" +
              fmt(br->number()) + " -> " + fmt(nr->number()) +
              " bytes), beyond the " + fmt_pct(opts.wallclock_threshold) +
              " threshold");
    } else if (-rel > opts.wallclock_threshold) {
      add(Finding::Level::kInfo, "",
          "wallclock: peak RSS shrank " + fmt_pct(rel) + " (" +
              fmt(br->number()) + " -> " + fmt(nr->number()) + " bytes)");
    }
  }

  void diff_wallclock(const Json& base, const Json& next) {
    const Json* bw = base.find("wallclock");
    const Json* nw = next.find("wallclock");
    if (bw == nullptr || nw == nullptr) {
      if (bw != nullptr || nw != nullptr) {
        add(Finding::Level::kInfo, "",
            std::string("wallclock section ") +
                (bw != nullptr ? "missing from new report" : "new; no baseline")
                + " — not gated");
      }
      return;
    }
    // Probe workloads must match before the numbers mean anything: each
    // campaign carries its own probe shape, so a baseline recorded with
    // one cannot gate a report recorded with another.
    const std::string bprobe = bw->string_at("probe");
    const std::string nprobe = nw->string_at("probe");
    if (bprobe != nprobe) {
      add(Finding::Level::kInfo, "",
          "wallclock: probe workloads differ (base '" + bprobe +
              "' vs new '" + nprobe + "'); events/sec not compared");
      return;
    }
    const std::string bfp = base.at("environment").string_at("fingerprint");
    const std::string nfp = next.at("environment").string_at("fingerprint");
    const double bm = bw->number_at("median_events_per_sec");
    const double nm = nw->number_at("median_events_per_sec");
    if (bm <= 0) return;
    const double rel = (nm - bm) / bm;
    if (bfp != nfp) {
      add(Finding::Level::kInfo, "",
          "wallclock: environment fingerprints differ (base '" + bfp +
              "' vs new '" + nfp + "'); events/sec delta " + fmt_pct(rel) +
              " is informational only");
      return;
    }
    diff_peak_rss(*bw, *nw);
    // Noise-aware gate: the threshold widens to 3*MAD/median when the
    // measured spread says the machine is noisier than the default allows.
    const double bmad = bw->number_at("mad_events_per_sec");
    const double nmad = nw->number_at("mad_events_per_sec");
    const double noise = 3 * std::max(bmad, nmad) / bm;
    const double threshold = std::max(opts.wallclock_threshold, noise);
    if (-rel > threshold) {
      add(Finding::Level::kFail, "",
          "wallclock: median events/sec dropped " + fmt_pct(rel) + " (" +
              fmt(bm) + " -> " + fmt(nm) + "), beyond the " +
              fmt_pct(-threshold) + " noise threshold");
    } else if (std::abs(rel) > threshold) {
      add(Finding::Level::kInfo, "",
          "wallclock: median events/sec improved " + fmt_pct(rel) + " (" +
              fmt(bm) + " -> " + fmt(nm) + ")");
    }
  }
};

}  // namespace

int CompareResult::failures() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.level == Finding::Level::kFail;
      }));
}

int CompareResult::blessed() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.level == Finding::Level::kBlessed;
      }));
}

CompareResult compare_reports(const Json& base, const Json& next,
                              const CompareOptions& opts) {
  check_format(base, "base");
  check_format(next, "new");
  CompareResult result;
  Differ d{opts, result, {}, {}};

  const auto base_idx = index_scenarios(base, "base");
  const auto next_idx = index_scenarios(next, "new");
  for (const auto& [id, bsc] : base_idx) {
    const auto it = next_idx.find(id);
    if (it == next_idx.end()) {
      d.add(d.drift_level(), id,
            "scenario missing from new report (campaign lost coverage)");
      continue;
    }
    d.diff_scenario(id, *bsc, *it->second);
  }
  for (const auto& [id, nsc] : next_idx) {
    (void)nsc;
    if (base_idx.find(id) == base_idx.end()) {
      d.add(d.drift_level(), id,
            "scenario not in baseline (new coverage; bless to adopt)");
    }
  }
  d.diff_wallclock(base, next);
  d.attribute_drift();
  return result;
}

void write_compare_report(std::ostream& os, const CompareResult& result,
                          const std::string& base_name,
                          const std::string& next_name) {
  os << "== hmca-bench compare: " << base_name << " vs " << next_name
     << " ==\n";
  os << result.scenarios_compared << " scenarios, "
     << result.metrics_compared << " simulated metrics compared\n";
  const auto section = [&](Finding::Level level, const char* title) {
    bool any = false;
    for (const auto& f : result.findings) {
      if (f.level != level) continue;
      if (!any) os << title << ":\n";
      any = true;
      os << "  ";
      if (!f.scenario.empty()) os << "[" << f.scenario << "] ";
      os << f.text << '\n';
    }
  };
  section(Finding::Level::kFail, "FAILURES");
  section(Finding::Level::kBlessed, "BLESSED (acknowledged drift)");
  section(Finding::Level::kInfo, "info");
  if (result.failures() > 0) {
    os << "verdict: FAIL (" << result.failures() << " finding"
       << (result.failures() == 1 ? "" : "s")
       << "; re-run with --bless after confirming the change is intended, "
          "then commit the new baseline)\n";
  } else if (result.blessed() > 0) {
    os << "verdict: OK (" << result.blessed()
       << " blessed drift(s) — commit the new report as the baseline)\n";
  } else {
    os << "verdict: OK (no drift)\n";
  }
}

}  // namespace hmca::perf
