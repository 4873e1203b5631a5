// Reference critical-path walk: the original O(steps x spans) scan that
// obs::analyze_critical_path replaced with an indexed lookup, plus the
// original quadratic phase_overlap_fraction. Kept only as the differential
// oracle for test_obs_critical_path_oracle, the same pattern as the
// binary-heap event queue behind the calendar queue.
//
// Every predecessor step rescans the whole stream; phase attribution
// rescans it again per step. The library's results must equal these field
// for field, bit for bit.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/names.hpp"
#include "trace/trace.hpp"

namespace hmca::obs::reference {

inline constexpr double kEps = 1e-12;

inline bool is_link(const trace::Span& s) {
  if (s.kind == trace::Kind::kPhase) return false;
  // Wrapped legacy bodies run as one whole-collective container task per
  // rank; like kPhase spans they *enclose* the real activity.
  if (s.kind == trace::Kind::kTask && names::is_wrapped_task(s.label)) {
    return false;
  }
  return s.t1 > s.t0;
}

// Innermost enclosing kPhase label on the step's rank ("" if none); the
// generic "exchange" phase yields to any enclosing paper phase.
inline std::string phase_of(const std::vector<trace::Span>& spans,
                            const trace::Span& step) {
  const trace::Span* best = nullptr;
  const trace::Span* best_exchange = nullptr;
  for (const auto& p : spans) {
    if (p.kind != trace::Kind::kPhase || p.rank != step.rank) continue;
    if (names::is_annotation(p.label)) continue;
    if (p.t0 > step.t0 + kEps || p.t1 + kEps < step.t1) continue;
    if (p.label == names::kPhaseExchange) {
      if (best_exchange == nullptr ||
          p.t1 - p.t0 < best_exchange->t1 - best_exchange->t0) {
        best_exchange = &p;
      }
      continue;
    }
    if (best == nullptr || p.t1 - p.t0 < best->t1 - best->t0) best = &p;
  }
  if (best == nullptr) best = best_exchange;
  return best != nullptr ? best->label : std::string{};
}

inline CriticalPathReport analyze_critical_path(
    const std::vector<trace::Span>& spans) {
  CriticalPathReport rep;

  // Start at the latest-ending real activity.
  const trace::Span* cur = nullptr;
  for (const auto& s : spans) {
    if (!is_link(s)) continue;
    if (cur == nullptr || s.t1 > cur->t1) cur = &s;
  }
  if (cur == nullptr) return rep;

  std::vector<char> visited(spans.size(), 0);
  std::vector<const trace::Span*> chain;
  while (cur != nullptr) {
    chain.push_back(cur);
    visited[static_cast<std::size_t>(cur - spans.data())] = 1;
    // Predecessor: the latest-ending unvisited span that finished by the
    // time `cur` started. A span on the same rank or across cur's message
    // edge (peer -> rank) is the releasing dependency; fall back to any
    // rank so chains survive spans the instrumentation didn't connect.
    const trace::Span* best_related = nullptr;
    const trace::Span* best_any = nullptr;
    for (const auto& s : spans) {
      if (!is_link(s) || visited[static_cast<std::size_t>(&s - spans.data())]) {
        continue;
      }
      if (s.t1 > cur->t0 + kEps) continue;
      const bool related = s.rank == cur->rank || s.rank == cur->peer ||
                           s.peer == cur->rank;
      if (related && (best_related == nullptr || s.t1 > best_related->t1)) {
        best_related = &s;
      }
      if (best_any == nullptr || s.t1 > best_any->t1) best_any = &s;
    }
    cur = best_related != nullptr ? best_related : best_any;
  }
  std::reverse(chain.begin(), chain.end());

  for (const trace::Span* s : chain) {
    const sim::Duration d = s->t1 - s->t0;
    std::string phase = phase_of(spans, *s);
    rep.steps.push_back(CriticalPathReport::Step{
        s->rank, s->kind, s->t0, s->t1, s->peer, s->bytes, s->label, phase});
    rep.total += d;
    rep.by_kind[trace::kind_name(s->kind)] += d;
    if (!phase.empty()) rep.by_phase[phase] += d;
    rep.by_phase_kind[phase][trace::kind_name(s->kind)] += d;
  }

  // Dominant kind: the longest contributor that isn't blocked time.
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

// The original phase_overlap_fraction: every phase2 union interval against
// every phase3 union interval.
inline double phase_overlap_fraction(const std::vector<trace::Span>& spans) {
  using Intervals = std::vector<std::pair<sim::Time, sim::Time>>;
  const auto merged = [](Intervals iv) {
    std::sort(iv.begin(), iv.end());
    Intervals out;
    for (const auto& [a, b] : iv) {
      if (!out.empty() && a <= out.back().second) {
        out.back().second = std::max(out.back().second, b);
      } else {
        out.emplace_back(a, b);
      }
    }
    return out;
  };
  Intervals p2;
  Intervals p3;
  for (const auto& s : spans) {
    if (s.kind != trace::Kind::kPhase || !(s.t1 > s.t0)) continue;
    if (s.label == "phase2") p2.emplace_back(s.t0, s.t1);
    if (s.label == "phase3") p3.emplace_back(s.t0, s.t1);
  }
  const Intervals u2 = merged(std::move(p2));
  const Intervals u3 = merged(std::move(p3));
  sim::Duration len3 = 0;
  for (const auto& [a, b] : u3) len3 += b - a;
  if (!(len3 > 0)) return 0.0;

  sim::Duration inter = 0;
  for (const auto& [a2, b2] : u2) {
    for (const auto& [a3, b3] : u3) {
      const sim::Time lo = std::max(a2, a3);
      const sim::Time hi = std::min(b2, b3);
      if (hi > lo) inter += hi - lo;
    }
  }
  return inter / len3;
}

}  // namespace hmca::obs::reference
