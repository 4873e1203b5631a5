#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <ostream>
#include <set>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/utilization.hpp"

namespace hmca::obs {

namespace {

std::string us3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string signed_us3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.3f", v);
  return buf;
}

std::string fmt_bytes_key(double msg_bytes) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.0f", msg_bytes);
  return buf;
}

std::string rail_key(int node, int rail) {
  return "node" + std::to_string(node) + "/rail" + std::to_string(rail);
}

/// The phase bucket for activity outside every phase annotation.
constexpr const char* kNoPhase = "(none)";

/// Relative magnitude for ranking non-time attributions.
double rel_change(const Attribution& a) {
  const double denom = std::max(std::abs(a.base), std::abs(a.next));
  return denom > 0 ? std::abs(a.delta) / denom : 0.0;
}

/// Rail busy time is a *parallel* resource sum (every node contributes),
/// so it is not additive toward the latency delta the way critical-path
/// time is — it ranks as context below the path categories, and never
/// claims a share of the delta.
bool is_rail_category(const Attribution& a) {
  return a.category == "rail" || a.category == "phase.rail";
}

int rank_class(const Attribution& a) {
  if (a.category == "decision") return 0;
  if (a.unit != "us") return 3;
  return is_rail_category(a) ? 2 : 1;
}

double rank_mag(const Attribution& a) {
  return a.unit == "us" ? std::abs(a.delta) : rel_change(a);
}

void rank(std::vector<Attribution>& attrs) {
  std::stable_sort(attrs.begin(), attrs.end(),
                   [](const Attribution& a, const Attribution& b) {
                     const int ca = rank_class(a);
                     const int cb = rank_class(b);
                     if (ca != cb) return ca < cb;
                     const double ma = rank_mag(a);
                     const double mb = rank_mag(b);
                     if (ma != mb) return ma > mb;
                     if (a.category != b.category) {
                       return a.category < b.category;
                     }
                     if (a.name != b.name) return a.name < b.name;
                     return a.unit < b.unit;
                   });
}

/// Diff two time maps (microseconds) on their key union. `with_share`
/// is false for parallel-resource categories whose time does not sum to
/// the latency delta.
void add_time_attrs(std::vector<Attribution>& out, const char* category,
                    const std::map<std::string, double>& base,
                    const std::map<std::string, double>& next,
                    double total_delta, const DiffOptions& opts,
                    bool with_share = true) {
  std::set<std::string> keys;
  for (const auto& [k, v] : base) keys.insert(k);
  for (const auto& [k, v] : next) keys.insert(k);
  for (const auto& k : keys) {
    Attribution a;
    a.category = category;
    a.name = k;
    a.unit = "us";
    const auto bi = base.find(k);
    const auto ni = next.find(k);
    a.base = bi != base.end() ? bi->second : 0.0;
    a.next = ni != next.end() ? ni->second : 0.0;
    a.delta = a.next - a.base;
    if (std::abs(a.delta) < opts.min_delta_us) continue;
    if (with_share && std::abs(total_delta) >= opts.min_delta_us) {
      a.share = a.delta / total_delta;
    }
    if (bi == base.end()) a.note = "only in next run";
    if (ni == next.end()) a.note = "only in base run";
    out.push_back(std::move(a));
  }
}

void add_count_attrs(std::vector<Attribution>& out, const char* category,
                     const char* unit,
                     const std::map<std::string, double>& base,
                     const std::map<std::string, double>& next,
                     const DiffOptions& opts) {
  std::set<std::string> keys;
  for (const auto& [k, v] : base) keys.insert(k);
  for (const auto& [k, v] : next) keys.insert(k);
  for (const auto& k : keys) {
    Attribution a;
    a.category = category;
    a.name = k;
    a.unit = unit;
    const auto bi = base.find(k);
    const auto ni = next.find(k);
    a.base = bi != base.end() ? bi->second : 0.0;
    a.next = ni != next.end() ? ni->second : 0.0;
    a.delta = a.next - a.base;
    if (rel_change(a) < opts.min_rel) continue;
    if (bi == base.end()) a.note = "only in next run";
    if (ni == next.end()) a.note = "only in base run";
    out.push_back(std::move(a));
  }
}

/// Flatten a nested phase -> inner map into "phase/inner" keys; "" phases
/// print as "(none)".
std::map<std::string, double> flatten(
    const std::map<std::string, std::map<std::string, double>>& m) {
  std::map<std::string, double> out;
  for (const auto& [phase, inner] : m) {
    const std::string p = phase.empty() ? kNoPhase : phase;
    for (const auto& [k, v] : inner) out[p + "/" + k] = v;
  }
  return out;
}

/// "what" of a decision string "what=name,reason".
std::string decision_what(const std::string& d) {
  const auto eq = d.find('=');
  return eq == std::string::npos ? d : d.substr(0, eq);
}

std::string decision_value(const std::string& d) {
  const auto eq = d.find('=');
  return eq == std::string::npos ? std::string{} : d.substr(eq + 1);
}

InvocationDiff diff_pair(const RunSummary& b, const RunSummary& n,
                         const DiffOptions& opts) {
  InvocationDiff d;
  d.key = b.key();
  d.op = b.op;
  d.subject = b.subject;
  d.msg_bytes = b.msg_bytes;
  d.base_latency_us = b.latency_us;
  d.next_latency_us = n.latency_us;
  d.delta_us = n.latency_us - b.latency_us;
  d.rel = b.latency_us > 0 ? d.delta_us / b.latency_us : 0.0;
  if (!b.world.empty() && !n.world.empty() && b.world != n.world) {
    d.world_mismatch = "world mismatch: base {" + b.world + "} vs next {" +
                       n.world + "} — these runs simulate different "
                       "topologies; the delta is a shape change, not a "
                       "regression";
  }

  // Decisions: align by the "what" half; a changed decision owns the whole
  // latency delta — everything downstream of a different algorithm choice
  // is its consequence.
  std::map<std::string, std::string> bd;
  std::map<std::string, std::string> nd;
  for (const auto& s : b.decisions) bd[decision_what(s)] = decision_value(s);
  for (const auto& s : n.decisions) nd[decision_what(s)] = decision_value(s);
  std::set<std::string> whats;
  for (const auto& [k, v] : bd) whats.insert(k);
  for (const auto& [k, v] : nd) whats.insert(k);
  for (const auto& w : whats) {
    const auto bi = bd.find(w);
    const auto ni = nd.find(w);
    const std::string bv = bi != bd.end() ? bi->second : "(absent)";
    const std::string nv = ni != nd.end() ? ni->second : "(absent)";
    if (bv == nv) continue;
    Attribution a;
    a.category = "decision";
    a.name = w;
    a.delta = d.delta_us;
    a.share = std::abs(d.delta_us) >= opts.min_delta_us ? 1.0 : 0.0;
    a.note = bv + " -> " + nv;
    d.attributions.push_back(std::move(a));
  }

  add_time_attrs(d.attributions, "phase", b.phase_us, n.phase_us, d.delta_us,
                 opts);
  add_time_attrs(d.attributions, "resource", b.resource_us, n.resource_us,
                 d.delta_us, opts);
  add_time_attrs(d.attributions, "phase.resource",
                 flatten(b.phase_resource_us), flatten(n.phase_resource_us),
                 d.delta_us, opts);
  add_time_attrs(d.attributions, "rail", b.rail_busy_us, n.rail_busy_us,
                 d.delta_us, opts, /*with_share=*/false);
  add_time_attrs(d.attributions, "phase.rail", flatten(b.phase_rail_busy_us),
                 flatten(n.phase_rail_busy_us), d.delta_us, opts,
                 /*with_share=*/false);
  add_time_attrs(d.attributions, "task", b.task_us, n.task_us, d.delta_us,
                 opts);
  add_count_attrs(d.attributions, "rail.bytes", "bytes", b.rail_bytes,
                  n.rail_bytes, opts);
  add_count_attrs(d.attributions, "counter", "count", b.counters, n.counters,
                  opts);
  rank(d.attributions);

  // Alignment-tolerance notes: rail sets of different size still diff
  // (missing side reads 0), but say so — a disappeared rail is usually the
  // finding itself.
  if (b.rail_busy_us.size() != n.rail_busy_us.size()) {
    d.notes.push_back("rail sets differ: base has " +
                      std::to_string(b.rail_busy_us.size()) + " rails, next " +
                      std::to_string(n.rail_busy_us.size()) +
                      " — absent rails diff against zero");
  }
  return d;
}

}  // namespace

std::string RunSummary::key() const {
  return op + "/" + subject + "/" + fmt_bytes_key(msg_bytes);
}

RunSummary summarize_invocation(std::string id, std::string op,
                                std::string subject, double msg_bytes,
                                const std::vector<trace::Span>& spans,
                                const std::vector<ResourceSample>& samples,
                                const Metrics* metrics, double wall_seconds) {
  RunSummary rs;
  rs.id = std::move(id);
  rs.op = std::move(op);
  rs.subject = std::move(subject);
  rs.msg_bytes = msg_bytes;
  rs.latency_us = wall_seconds * 1e6;

  const CriticalPathReport cp = analyze_critical_path(spans);
  rs.critical_path_us = cp.total * 1e6;
  rs.overlap_fraction = phase_overlap_fraction(spans);
  for (const auto& [phase, dur] : cp.by_phase) rs.phase_us[phase] = dur * 1e6;
  // Resource classes come from the path *steps*, not by_kind: a dataflow
  // critical path is made of kTask container spans whose class lives in
  // the task-kind token of the label.
  for (const auto& st : cp.steps) {
    const char* cls = names::span_resource_class(st.kind, st.label);
    if (*cls == '\0') continue;
    const double dur = (st.t1 - st.t0) * 1e6;
    rs.resource_us[cls] += dur;
    rs.phase_resource_us[st.phase][cls] += dur;
  }

  const Utilization util =
      analyze_utilization(spans, samples, wall_seconds);
  for (const auto& r : util.rails) {
    const std::string k = rail_key(r.node, r.rail);
    rs.rail_busy_us[k] = r.busy_frac * wall_seconds * 1e6;
    rs.rail_bytes[k] = r.bytes;
  }
  for (const auto& rp : util.rail_phases) {
    rs.phase_rail_busy_us[rp.phase][rail_key(rp.node, rp.rail)] =
        rp.busy * 1e6;
  }

  for (const auto& s : spans) {
    if (s.kind == trace::Kind::kTask && s.t1 > s.t0) {
      rs.task_us[std::string(names::strip_chunk(s.label))] +=
          (s.t1 - s.t0) * 1e6;
    }
  }
  rs.decisions = names::decision_labels(spans);
  std::sort(rs.decisions.begin(), rs.decisions.end());

  if (metrics != nullptr) {
    for (const auto& [key, value] : metrics->counters()) {
      rs.counters[key.name] += value;
    }
  }
  return rs;
}

RunSummary run_summary_from_metrics(
    std::string id, std::string op, std::string subject, double msg_bytes,
    const std::map<std::string, double>& metrics, std::string decision) {
  RunSummary rs;
  rs.id = std::move(id);
  rs.op = std::move(op);
  rs.subject = std::move(subject);
  rs.msg_bytes = msg_bytes;
  if (!decision.empty()) rs.decisions.push_back(std::move(decision));

  const auto num = [&metrics](const char* name) {
    const auto it = metrics.find(name);
    return it != metrics.end() ? it->second : 0.0;
  };
  rs.latency_us = num("latency_us");
  rs.critical_path_us = num("critical_path_us");
  rs.overlap_fraction = num("overlap_fraction");

  const auto strip = [](const std::string& s, const char* prefix,
                        const char* suffix, std::string* mid) {
    const std::string p(prefix);
    const std::string x(suffix);
    if (s.rfind(p, 0) != 0 || s.size() <= p.size() + x.size()) return false;
    if (s.compare(s.size() - x.size(), x.size(), x) != 0) return false;
    *mid = s.substr(p.size(), s.size() - p.size() - x.size());
    return true;
  };

  for (const auto& [name, value] : metrics) {
    std::string mid;
    if (name == "latency_us" || name == "critical_path_us" ||
        name == "overlap_fraction") {
      continue;
    }
    if (strip(name, "cp_phase_", "_us", &mid)) {
      rs.phase_us[mid] = value;
    } else if (strip(name, "cp_class_", "_us", &mid)) {
      rs.resource_us[mid] += value;
    } else if (strip(name, "cp_cell_", "_us", &mid)) {
      // "<phase>_<class>": the class is the token after the last '_'.
      const auto us = mid.rfind('_');
      if (us != std::string::npos && us + 1 < mid.size()) {
        rs.phase_resource_us[mid.substr(0, us)][mid.substr(us + 1)] += value;
      }
    } else if (strip(name, "cp_kind_", "_us", &mid)) {
      const char* cls = names::resource_class_of_name(mid);
      if (*cls != '\0') rs.resource_us[cls] += value;
    } else if (strip(name, "net_rail", "_bytes", &mid) && !mid.empty() &&
               mid.find_first_not_of("0123456789") == std::string::npos) {
      rs.rail_bytes["rail" + mid] = value;
    } else if (strip(name, "rail", "_busy_frac", &mid) && !mid.empty() &&
               mid.find_first_not_of("0123456789") == std::string::npos) {
      // Flat metrics carry no node id and no wall separate from latency:
      // scale the busy fraction by the point latency for a comparable
      // microsecond figure.
      rs.rail_busy_us["rail" + mid] = value * rs.latency_us;
    } else {
      rs.counters[name] = value;
    }
  }
  return rs;
}

bool DiffReport::has_world_mismatch() const {
  for (const auto& inv : invocations) {
    if (!inv.world_mismatch.empty()) return true;
  }
  return false;
}

DiffReport diff_runs(const std::vector<RunSummary>& base,
                     const std::vector<RunSummary>& next,
                     const DiffOptions& opts) {
  DiffReport rep;
  std::map<std::string, std::deque<std::size_t>> next_by_key;
  for (std::size_t i = 0; i < next.size(); ++i) {
    next_by_key[next[i].key()].push_back(i);
  }
  std::vector<bool> next_used(next.size(), false);
  for (const auto& b : base) {
    auto it = next_by_key.find(b.key());
    if (it == next_by_key.end() || it->second.empty()) {
      rep.only_base.push_back(b.key());
      continue;
    }
    const std::size_t j = it->second.front();
    it->second.pop_front();
    next_used[j] = true;
    rep.invocations.push_back(diff_pair(b, next[j], opts));
  }
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (!next_used[i]) rep.only_next.push_back(next[i].key());
  }
  if (rep.invocations.empty()) {
    rep.notes.push_back(
        "no invocations aligned: the two runs share no (op, subject, "
        "msg_bytes) key");
  }
  return rep;
}

std::string InvocationDiff::headline() const {
  std::string out = key + ": ";
  if (base_latency_us > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", rel * 100.0);
    out += buf;
    out += " latency";
  } else {
    out += "latency";
  }
  out += " (" + signed_us3(delta_us) + " us)";

  // Most specific dominant cause along the critical path: the largest
  // phase x resource cell (falling back to resource, then phase).
  const auto largest = [this](const char* category,
                              const std::string& prefix) {
    const Attribution* best = nullptr;
    for (const auto& a : attributions) {
      if (a.category != category) continue;
      if (!prefix.empty() && a.name.rfind(prefix, 0) != 0) continue;
      if (best == nullptr || std::abs(a.delta) > std::abs(best->delta)) {
        best = &a;
      }
    }
    return best;
  };
  const Attribution* best = largest("phase.resource", "");
  if (best == nullptr) best = largest("resource", "");
  if (best == nullptr) best = largest("phase", "");
  if (best != nullptr && best->share != 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f%%", best->share * 100.0);
    out += "; ";
    out += buf;
    out += " of delta on " + best->category + " " + best->name;
    // Corroborate with the hottest rail of the same phase (rail busy is a
    // parallel sum — context, not a share of the delta).
    if (best->category == "phase.resource") {
      const auto slash = best->name.find('/');
      const Attribution* hot =
          largest("phase.rail", best->name.substr(0, slash + 1));
      if (hot != nullptr) {
        out += " (hottest rail " + hot->name + ", " + signed_us3(hot->delta) +
               " us busy)";
      }
    }
  }
  for (const auto& a : attributions) {
    if (a.category == "decision") {
      out += "; decision " + a.name + ": " + a.note;
    }
  }
  if (!world_mismatch.empty()) out += "; " + world_mismatch;
  return out;
}

void DiffReport::write_json(std::ostream& os) const {
  const auto prov = [&os](const char* name, const std::string& label,
                          const std::vector<std::pair<std::string,
                                                      std::string>>& p) {
    os << "  \"" << name << "\": {\"label\": \"" << json_escape(label)
       << "\", \"provenance\": {";
    bool first = true;
    for (const auto& [k, v] : p) {
      os << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
         << json_escape(v) << '"';
      first = false;
    }
    os << "}},\n";
  };
  os << "{\n  \"format\": \"hmca-diff-1\",\n";
  prov("base", base_label, base_provenance);
  prov("next", next_label, next_provenance);
  os << "  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(notes[i]) << '"';
  }
  os << "],\n";
  os << "  \"invocations\": [";
  for (std::size_t i = 0; i < invocations.size(); ++i) {
    const auto& inv = invocations[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\n"
       << "      \"key\": \"" << json_escape(inv.key) << "\",\n"
       << "      \"op\": \"" << json_escape(inv.op) << "\",\n"
       << "      \"subject\": \"" << json_escape(inv.subject) << "\",\n"
       << "      \"msg_bytes\": " << json_number(inv.msg_bytes) << ",\n"
       << "      \"base_latency_us\": " << us3(inv.base_latency_us) << ",\n"
       << "      \"next_latency_us\": " << us3(inv.next_latency_us) << ",\n"
       << "      \"delta_us\": " << us3(inv.delta_us) << ",\n"
       << "      \"rel\": " << json_number(inv.rel) << ",\n"
       << "      \"world_mismatch\": \"" << json_escape(inv.world_mismatch)
       << "\",\n"
       << "      \"headline\": \"" << json_escape(inv.headline()) << "\",\n"
       << "      \"notes\": [";
    for (std::size_t k = 0; k < inv.notes.size(); ++k) {
      os << (k == 0 ? "" : ", ") << '"' << json_escape(inv.notes[k]) << '"';
    }
    os << "],\n      \"attributions\": [";
    for (std::size_t k = 0; k < inv.attributions.size(); ++k) {
      const auto& a = inv.attributions[k];
      os << (k == 0 ? "\n" : ",\n") << "        {\"category\": \""
         << json_escape(a.category) << "\", \"name\": \""
         << json_escape(a.name) << "\", \"unit\": \"" << json_escape(a.unit)
         << "\", \"base\": " << json_number(a.base)
         << ", \"next\": " << json_number(a.next)
         << ", \"delta\": " << json_number(a.delta)
         << ", \"share\": " << json_number(a.share) << ", \"note\": \""
         << json_escape(a.note) << "\"}";
    }
    if (!inv.attributions.empty()) os << "\n      ";
    os << "]\n    }";
  }
  if (!invocations.empty()) os << "\n  ";
  os << "],\n";
  const auto keys = [&os](const char* name,
                          const std::vector<std::string>& v, bool last) {
    os << "  \"" << name << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << json_escape(v[i]) << '"';
    }
    os << (last ? "]\n" : "],\n");
  };
  keys("only_base", only_base, false);
  keys("only_next", only_next, true);
  os << "}\n";
}

void DiffReport::write_text(std::ostream& os, int top_k) const {
  os << "diff: base=" << base_label << " next=" << next_label << '\n';
  for (const auto& n : notes) os << "note: " << n << '\n';
  for (const auto& inv : invocations) {
    os << '\n' << inv.headline() << '\n';
    os << "  base " << us3(inv.base_latency_us) << " us -> next "
       << us3(inv.next_latency_us) << " us\n";
    if (!inv.world_mismatch.empty()) {
      os << "  !! " << inv.world_mismatch << '\n';
    }
    for (const auto& n : inv.notes) os << "  note: " << n << '\n';
    int shown = 0;
    for (const auto& a : inv.attributions) {
      if (shown >= top_k) {
        os << "  ... " << (inv.attributions.size() - shown)
           << " more attributions (see JSON)\n";
        break;
      }
      os << "  " << a.category << ' ' << a.name;
      if (a.unit == "us") {
        os << ": " << signed_us3(a.delta) << " us";
        if (a.share != 0) {
          char buf[32];
          std::snprintf(buf, sizeof buf, " (%.0f%% of delta)",
                        a.share * 100.0);
          os << buf;
        }
      } else if (a.category == "decision") {
        os << ": " << a.note;
      } else {
        os << ": " << json_number(a.base) << " -> " << json_number(a.next)
           << ' ' << a.unit;
      }
      if (!a.note.empty() && a.category != "decision") {
        os << " [" << a.note << ']';
      }
      os << '\n';
      ++shown;
    }
  }
  for (const auto& k : only_base) os << "\nonly in base: " << k << '\n';
  for (const auto& k : only_next) os << "\nonly in next: " << k << '\n';
}

void DiffReport::write_html(std::ostream& os, int top_k) const {
  os << "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
     << "<title>hmca diff</title>\n<style>\n"
     << "body{font:14px/1.4 system-ui,sans-serif;margin:24px;"
     << "color:#1a202c}\n"
     << "h1{font-size:20px} h2{font-size:16px;margin:18px 0 6px}\n"
     << "table{border-collapse:collapse;margin:6px 0}\n"
     << "td,th{border:1px solid #cbd5e0;padding:3px 8px;text-align:left;"
     << "font-size:13px}\n"
     << ".pos{color:#c53030}.neg{color:#2f855a}\n"
     << ".bar{display:inline-block;height:10px;background:#c53030}\n"
     << ".barneg{display:inline-block;height:10px;background:#2f855a}\n"
     << ".mismatch{background:#fff5f5;border:1px solid #c53030;"
     << "padding:6px 10px}\n"
     << ".note{color:#718096;font-size:12px}\n"
     << "</style></head><body>\n";
  os << "<h1>hmca diff: " << json_escape(base_label) << " &rarr; "
     << json_escape(next_label) << "</h1>\n";
  for (const auto& n : notes) {
    os << "<p class=\"note\">" << json_escape(n) << "</p>\n";
  }
  for (const auto& inv : invocations) {
    os << "<h2>" << json_escape(inv.headline()) << "</h2>\n";
    if (!inv.world_mismatch.empty()) {
      os << "<p class=\"mismatch\">" << json_escape(inv.world_mismatch)
         << "</p>\n";
    }
    for (const auto& n : inv.notes) {
      os << "<p class=\"note\">" << json_escape(n) << "</p>\n";
    }
    os << "<table><tr><th>category</th><th>name</th><th>base</th>"
       << "<th>next</th><th>delta</th><th>share</th><th></th></tr>\n";
    double max_abs = 0;
    for (const auto& a : inv.attributions) {
      if (a.unit == "us") max_abs = std::max(max_abs, std::abs(a.delta));
    }
    int shown = 0;
    for (const auto& a : inv.attributions) {
      if (shown >= top_k) break;
      os << "<tr><td>" << json_escape(a.category) << "</td><td>"
         << json_escape(a.name) << "</td><td>" << json_number(a.base)
         << "</td><td>" << json_number(a.next) << "</td><td class=\""
         << (a.delta >= 0 ? "pos" : "neg") << "\">" << json_number(a.delta)
         << (a.unit.empty() ? "" : " ") << json_escape(a.unit) << "</td><td>";
      if (a.share != 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f%%", a.share * 100.0);
        os << buf;
      }
      os << "</td><td>";
      if (a.unit == "us" && max_abs > 0) {
        const int w = static_cast<int>(std::abs(a.delta) / max_abs * 120.0);
        os << "<span class=\"" << (a.delta >= 0 ? "bar" : "barneg")
           << "\" style=\"width:" << w << "px\"></span>";
      } else if (!a.note.empty()) {
        os << json_escape(a.note);
      }
      os << "</td></tr>\n";
      ++shown;
    }
    os << "</table>\n";
  }
  const auto orphan = [&os](const char* title,
                            const std::vector<std::string>& v) {
    if (v.empty()) return;
    os << "<h2>" << title << "</h2><ul>";
    for (const auto& k : v) os << "<li>" << json_escape(k) << "</li>";
    os << "</ul>\n";
  };
  orphan("only in base", only_base);
  orphan("only in next", only_next);
  os << "</body></html>\n";
}

}  // namespace hmca::obs
