#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"  // json_escape
#include "obs/names.hpp"

namespace hmca::obs {

namespace {

// Tolerance for "finished at or before": virtual times are exact doubles
// produced by the same arithmetic on both ends, but summed delays can
// differ in the last ulp.
constexpr double kEps = 1e-12;

bool is_link(const trace::Span& s) {
  if (s.kind == trace::Kind::kPhase) return false;
  // Wrapped legacy bodies run as one whole-collective container task per
  // rank; like kPhase spans they *enclose* the real activity, and letting
  // them onto the path would collapse it to a single unclassifiable span.
  if (s.kind == trace::Kind::kTask && names::is_wrapped_task(s.label)) {
    return false;
  }
  return s.t1 > s.t0;
}

// Link spans sharing one lookup key (a rank, a peer, or the whole stream),
// ordered by (t1 ascending, stream index descending). The last entry that
// ends by a bound is then the latest-ending one and, among equal ends, the
// earliest in the stream: the span a forward scan that keeps only strict
// `>` improvements would pick.
class LinkList {
 public:
  void push(std::uint32_t span) {
    entries_.push_back({span, static_cast<std::int32_t>(entries_.size()) - 1});
  }

  /// Latest-ending unvisited span with t1 <= bound, or nullptr.
  const trace::Span* latest(const std::vector<trace::Span>& spans,
                            sim::Time bound, const std::vector<char>& visited) {
    const auto end = std::upper_bound(
        entries_.begin(), entries_.end(), bound,
        [&](sim::Time b, const Entry& e) { return b < spans[e.span].t1; });
    std::int32_t pos = static_cast<std::int32_t>(end - entries_.begin()) - 1;
    std::int32_t hit = pos;
    while (hit >= 0 && visited[entries_[hit].span]) hit = entries_[hit].skip;
    while (pos > hit) {  // compress the path just walked
      const std::int32_t next = entries_[pos].skip;
      entries_[pos].skip = hit;
      pos = next;
    }
    return hit < 0 ? nullptr : &spans[entries_[hit].span];
  }

 private:
  struct Entry {
    std::uint32_t span;
    // Every entry strictly between `skip` and this one is visited, so a
    // lookup crosses a run of visited entries in one hop.
    std::int32_t skip;
  };
  std::vector<Entry> entries_;
};

using PhaseIndex = std::unordered_map<int, std::vector<const trace::Span*>>;

// Innermost enclosing kPhase label on the step's rank ("" if none). The
// generic "exchange" phase of flat algorithms yields to any enclosing
// paper phase: a ring used as the phase-1 building block of a
// hierarchical collective still attributes its steps to phase1. `phases`
// holds each rank's non-annotation kPhase spans in stream order.
std::string phase_of(const PhaseIndex& phases, const trace::Span& step) {
  const auto it = phases.find(step.rank);
  if (it == phases.end()) return {};
  const trace::Span* best = nullptr;
  const trace::Span* best_exchange = nullptr;
  for (const trace::Span* p : it->second) {
    if (p->t0 > step.t0 + kEps || p->t1 + kEps < step.t1) continue;
    if (p->label == names::kPhaseExchange) {
      if (best_exchange == nullptr ||
          p->t1 - p->t0 < best_exchange->t1 - best_exchange->t0) {
        best_exchange = p;
      }
      continue;
    }
    if (best == nullptr || p->t1 - p->t0 < best->t1 - best->t0) best = p;
  }
  if (best == nullptr) best = best_exchange;
  return best != nullptr ? best->label : std::string{};
}

// Merge a span-interval list into a disjoint sorted union.
std::vector<std::pair<sim::Time, sim::Time>> merged(
    std::vector<std::pair<sim::Time, sim::Time>> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<sim::Time, sim::Time>> out;
  for (const auto& [a, b] : iv) {
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  return out;
}

sim::Duration total_len(
    const std::vector<std::pair<sim::Time, sim::Time>>& iv) {
  sim::Duration t = 0;
  for (const auto& [a, b] : iv) t += b - a;
  return t;
}

std::string us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

CriticalPathReport analyze_critical_path(
    const std::vector<trace::Span>& spans) {
  CriticalPathReport rep;

  // One classification pass: link spans keyed by end time, and each
  // rank's phase spans for attribution.
  struct End {
    sim::Time t1;
    std::uint32_t span;
    int rank;
    int peer;
  };
  std::vector<End> ends;
  PhaseIndex phases;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& s = spans[i];
    if (s.kind == trace::Kind::kPhase) {
      if (!names::is_annotation(s.label)) phases[s.rank].push_back(&s);
    } else if (is_link(s)) {
      ends.push_back({s.t1, static_cast<std::uint32_t>(i), s.rank, s.peer});
    }
  }
  if (ends.empty()) return rep;
  std::sort(ends.begin(), ends.end(), [](const End& a, const End& b) {
    return a.t1 < b.t1 || (a.t1 == b.t1 && a.span > b.span);
  });
  LinkList all;
  std::unordered_map<int, LinkList> by_rank;
  std::unordered_map<int, LinkList> by_peer;
  for (const End& e : ends) {
    all.push(e.span);
    by_rank[e.rank].push(e.span);
    by_peer[e.peer].push(e.span);
  }
  const auto list = [](std::unordered_map<int, LinkList>& m, int key) {
    const auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
  };

  // Start at the latest-ending real activity and walk back. Predecessor:
  // the latest-ending unvisited span that finished by the time `cur`
  // started. A span on the same rank or across cur's message edge
  // (peer -> rank) is the releasing dependency; fall back to any rank so
  // chains survive spans the instrumentation didn't connect. Visited spans
  // are never picked again, so spans shorter than kEps cannot cycle.
  const trace::Span* cur = &spans[ends.back().span];
  ends = {};  // the lists carry the order from here on
  std::vector<char> visited(spans.size(), 0);
  std::vector<const trace::Span*> chain;
  while (cur != nullptr) {
    chain.push_back(cur);
    visited[static_cast<std::size_t>(cur - spans.data())] = 1;
    const sim::Time bound = cur->t0 + kEps;
    const trace::Span* best = nullptr;
    for (LinkList* l : {list(by_rank, cur->rank), list(by_rank, cur->peer),
                        list(by_peer, cur->rank)}) {
      if (l == nullptr) continue;
      const trace::Span* s = l->latest(spans, bound, visited);
      if (s != nullptr &&
          (best == nullptr || s->t1 > best->t1 ||
           (s->t1 == best->t1 && s < best))) {
        best = s;
      }
    }
    cur = best != nullptr ? best : all.latest(spans, bound, visited);
  }
  std::reverse(chain.begin(), chain.end());

  for (const trace::Span* s : chain) {
    const sim::Duration d = s->t1 - s->t0;
    std::string phase = phase_of(phases, *s);
    rep.steps.push_back(CriticalPathReport::Step{
        s->rank, s->kind, s->t0, s->t1, s->peer, s->bytes, s->label, phase});
    rep.total += d;
    rep.by_kind[trace::kind_name(s->kind)] += d;
    if (!phase.empty()) rep.by_phase[phase] += d;
    rep.by_phase_kind[phase][trace::kind_name(s->kind)] += d;
  }

  // Dominant kind: the longest contributor that isn't blocked time — waits
  // are a symptom, not the resource to optimize.
  sim::Duration best = -1;
  for (const auto& [kind, d] : rep.by_kind) {
    if (kind == trace::kind_name(trace::Kind::kWait)) continue;
    if (d > best) {
      best = d;
      rep.dominant_kind = kind;
    }
  }
  if (rep.dominant_kind.empty() && !rep.by_kind.empty()) {
    rep.dominant_kind = rep.by_kind.begin()->first;
  }
  best = -1;
  for (const auto& [phase, d] : rep.by_phase) {
    if (d > best) {
      best = d;
      rep.dominant_phase = phase;
    }
  }
  return rep;
}

void CriticalPathReport::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n";
  os << pad << "  \"total_us\": " << us(total) << ",\n";
  os << pad << "  \"dominant_kind\": \"" << json_escape(dominant_kind)
     << "\",\n";
  os << pad << "  \"dominant_phase\": \"" << json_escape(dominant_phase)
     << "\",\n";
  const auto table = [&](const char* name,
                         const std::map<std::string, sim::Duration>& m) {
    os << pad << "  \"" << name << "\": {";
    bool first = true;
    for (const auto& [k, d] : m) {
      os << (first ? "" : ", ") << '"' << json_escape(k)
         << "\": " << us(d);
      first = false;
    }
    os << "},\n";
  };
  table("by_kind_us", by_kind);
  table("by_phase_us", by_phase);
  os << pad << "  \"by_phase_kind_us\": {";
  bool first_phase = true;
  for (const auto& [phase, kinds] : by_phase_kind) {
    os << (first_phase ? "" : ", ") << '"' << json_escape(phase) << "\": {";
    bool first_kind = true;
    for (const auto& [k, d] : kinds) {
      os << (first_kind ? "" : ", ") << '"' << json_escape(k)
         << "\": " << us(d);
      first_kind = false;
    }
    os << '}';
    first_phase = false;
  }
  os << "},\n";
  os << pad << "  \"steps\": [";
  bool first = true;
  for (const auto& st : steps) {
    os << (first ? "\n" : ",\n") << pad << "    {\"rank\": " << st.rank
       << ", \"kind\": \"" << trace::kind_name(st.kind)
       << "\", \"t0_us\": " << us(st.t0)
       << ", \"dur_us\": " << us(st.t1 - st.t0) << ", \"peer\": " << st.peer
       << ", \"bytes\": " << st.bytes << ", \"label\": \""
       << json_escape(st.label) << "\", \"phase\": \""
       << json_escape(st.phase) << "\"}";
    first = false;
  }
  if (!first) os << '\n' << pad << "  ";
  os << "]\n" << pad << '}';
}

std::string CriticalPathReport::summary() const {
  if (steps.empty()) return "critical path: no spans";
  std::string out = "critical path " + us(total) + " us over " +
                    std::to_string(steps.size()) + " spans";
  if (!dominant_kind.empty()) {
    const auto it = by_kind.find(dominant_kind);
    const double share =
        total > 0 && it != by_kind.end() ? it->second / total * 100.0 : 0.0;
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.0f%%", share);
    out += "; dominant kind " + dominant_kind + " (" + pct + ")";
  }
  if (!dominant_phase.empty()) out += "; dominant phase " + dominant_phase;
  return out;
}

double phase_overlap_fraction(const std::vector<trace::Span>& spans) {
  std::vector<std::pair<sim::Time, sim::Time>> p2;
  std::vector<std::pair<sim::Time, sim::Time>> p3;
  for (const auto& s : spans) {
    if (s.kind != trace::Kind::kPhase || !(s.t1 > s.t0)) continue;
    if (s.label == "phase2") p2.emplace_back(s.t0, s.t1);
    if (s.label == "phase3") p3.emplace_back(s.t0, s.t1);
  }
  const auto u2 = merged(std::move(p2));
  const auto u3 = merged(std::move(p3));
  const sim::Duration len3 = total_len(u3);
  if (!(len3 > 0)) return 0.0;

  // Both unions are sorted and disjoint: one sweep meets every overlapping
  // pair, in (phase2 interval, phase3 interval) order.
  sim::Duration inter = 0;
  for (std::size_t i = 0, j = 0; i < u2.size() && j < u3.size();) {
    const auto& [a2, b2] = u2[i];
    const auto& [a3, b3] = u3[j];
    const sim::Time lo = std::max(a2, a3);
    const sim::Time hi = std::min(b2, b3);
    if (hi > lo) inter += hi - lo;
    if (b2 < b3) {
      ++i;
    } else {
      ++j;
    }
  }
  return inter / len3;
}

}  // namespace hmca::obs
