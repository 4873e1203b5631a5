#include "sim/fluid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hmca::sim {

namespace {
// A flow is complete when less than this many payload bytes remain; real
// transfers are >= 1 byte so this absorbs floating-point residue only.
constexpr double kRemainderEps = 1e-6;
// Completion events are scheduled at least this far ahead. Without a floor,
// a residual a hair above kRemainderEps can yield a delta below the
// floating-point resolution of `now`, re-arming an event at the same
// timestamp forever (zero virtual progress, 100% CPU).
constexpr double kMinCompletionDt = 1e-9;
// A weight that is an integer no larger than this is "exact" for the class
// solve: a resource's pending sum of such weights stays far below 2^53 for
// any network that fits in memory, so it is exact in any summation order.
constexpr double kMaxExactWeight = 65536.0;

// splitmix64 finalizer: the class-key hash combiner.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

std::vector<double> waterfill_reference(
    const std::vector<double>& capacities,
    const std::vector<ReferenceFlow>& flows) {
  struct Res {
    double capacity;
    double avail = 0.0;
    double pending_weight = 0.0;
  };
  std::vector<Res> res;
  res.reserve(capacities.size());
  for (const double c : capacities) res.push_back(Res{c});

  std::vector<double> rate(flows.size(), 0.0);
  std::vector<char> frozen(flows.size(), 0);
  std::vector<char> bottleneck(capacities.size(), 0);
  auto unfrozen = static_cast<int>(flows.size());

  // Progressive filling: repeatedly find the tightest constraint — either a
  // resource's fair share avail/weight or the smallest per-flow cap — fix
  // the constrained flows at that rate, and continue with the rest.
  // avail and pending are recomputed from the flow sets every round:
  // incremental subtraction accumulates floating-point residue that can
  // leave a "ghost" resource with tiny pending weight and no actual
  // unfrozen users, which would stall the filling.
  while (unfrozen > 0) {
    for (auto& r : res) {
      r.avail = r.capacity;
      r.pending_weight = 0.0;
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      for (const auto& u : flows[f].uses) {
        auto& r = res[u.resource];
        if (frozen[f]) {
          r.avail = std::max(0.0, r.avail - rate[f] * u.weight);
        } else {
          r.pending_weight += u.weight;
        }
      }
    }

    double share = std::numeric_limits<double>::infinity();
    for (const auto& r : res) {
      if (r.pending_weight > 0.0) {
        share = std::min(share, r.avail / r.pending_weight);
      }
    }
    double min_cap = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!frozen[f]) min_cap = std::min(min_cap, flows[f].rate_cap);
    }

    if (min_cap <= share) {
      // Cap-limited flows freeze at their cap; they may leave bandwidth on
      // the table for the others.
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (frozen[f] || flows[f].rate_cap != min_cap) continue;
        frozen[f] = 1;
        rate[f] = min_cap;
        --unfrozen;
      }
      continue;
    }

    // Freeze every unfrozen flow touching a bottleneck resource at the
    // fair share. Membership is decided against the shares computed above
    // (two passes), so mid-loop drift cannot empty the round.
    bottleneck.assign(capacities.size(), 0);
    bool any_bottleneck = false;
    for (std::size_t rid = 0; rid < res.size(); ++rid) {
      const auto& r = res[rid];
      if (r.pending_weight > 0.0 &&
          r.avail / r.pending_weight <= share * (1.0 + 1e-9)) {
        bottleneck[rid] = 1;
        any_bottleneck = true;
      }
    }
    if (!any_bottleneck) {
      throw SimError("waterfill_reference: failed to converge");
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f]) continue;
      bool bottlenecked = false;
      for (const auto& u : flows[f].uses) {
        if (bottleneck[u.resource]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      frozen[f] = 1;
      rate[f] = share;
      --unfrozen;
    }
  }
  return rate;
}

ResourceId FluidNetwork::add_resource(const std::string& name,
                                      double capacity_bytes_per_s) {
  if (!(capacity_bytes_per_s > 0.0)) {
    throw SimError("FluidNetwork: resource capacity must be positive: " + name);
  }
  resources_.emplace_back();
  res_cap_.push_back(capacity_bytes_per_s);
  res_served_.push_back(0.0);
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidNetwork::validate(const FlowSpec& spec) const {
  for (const auto& u : spec.uses) {
    if (u.resource >= resources_.size()) {
      throw SimError("FluidNetwork: unknown resource id");
    }
    if (!(u.weight > 0.0)) {
      throw SimError("FluidNetwork: resource weight must be positive");
    }
  }
  if (spec.uses.empty() && !(spec.rate_cap < kNoRateCap)) {
    throw SimError("FluidNetwork: flow with no resources needs a rate cap");
  }
  if (!(spec.rate_cap > 0.0)) {
    throw SimError("FluidNetwork: rate cap must be positive");
  }
}

std::uint32_t FluidNetwork::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  remaining_.push_back(0.0);
  cls_.push_back(kNil);
  next_.push_back(kNil);
  prev_.push_back(kNil);
  cold_.emplace_back();
  return static_cast<std::uint32_t>(cold_.size() - 1);
}

std::uint32_t FluidNetwork::intern_class(const FlowSpec& spec) {
  std::uint64_t h = mix64(std::bit_cast<std::uint64_t>(spec.rate_cap));
  for (const auto& u : spec.uses) {
    h = mix64(h ^ u.resource);
    h = mix64(h ^ std::bit_cast<std::uint64_t>(u.weight));
  }
  const auto it = class_index_.try_emplace(h, kNil).first;
  const auto nu = static_cast<std::uint32_t>(spec.uses.size());
  for (std::uint32_t c = it->second; c != kNil; c = classes_[c].hash_next) {
    const FlowClass& k = classes_[c];
    if (k.cap != spec.rate_cap || k.n_uses != nu) continue;
    const ResourceUse* uses = uses_arena_.data() + k.uses_off;
    bool same = true;
    for (std::uint32_t i = 0; i < nu && same; ++i) {
      same = uses[i].resource == spec.uses[i].resource &&
             uses[i].weight == spec.uses[i].weight;
    }
    if (same) return c;
  }
  FlowClass k;
  k.uses_off = static_cast<std::uint32_t>(uses_arena_.size());
  k.n_uses = nu;
  k.hash_next = it->second;
  k.cap = spec.rate_cap;
  k.integral = std::all_of(spec.uses.begin(), spec.uses.end(),
                           [](const ResourceUse& u) {
                             return u.weight <= kMaxExactWeight &&
                                    u.weight == std::floor(u.weight);
                           });
  uses_arena_.insert(uses_arena_.end(), spec.uses.begin(), spec.uses.end());
  entry_pos_.resize(uses_arena_.size());
  const auto c = static_cast<std::uint32_t>(classes_.size());
  classes_.push_back(k);
  it->second = c;
  return c;
}

void FluidNetwork::link_class(std::uint32_t c) {
  const FlowClass& k = classes_[c];
  // One entry per use (duplicate resource ids are legal).
  for (std::uint32_t i = 0; i < k.n_uses; ++i) {
    auto& entries = resources_[uses_arena_[k.uses_off + i].resource].entries;
    entry_pos_[k.uses_off + i] = static_cast<std::uint32_t>(entries.size());
    entries.push_back(pack_entry(c, i));
  }
}

void FluidNetwork::unlink_class(std::uint32_t c) {
  const FlowClass& k = classes_[c];
  for (std::uint32_t i = 0; i < k.n_uses; ++i) {
    auto& entries = resources_[uses_arena_[k.uses_off + i].resource].entries;
    const std::uint32_t pos = entry_pos_[k.uses_off + i];
    const std::uint64_t moved = entries.back();
    entries[pos] = moved;
    entries.pop_back();
    if (moved != pack_entry(c, i)) {
      const auto mc = static_cast<std::uint32_t>(moved >> 32);
      entry_pos_[classes_[mc].uses_off + static_cast<std::uint32_t>(moved)] =
          pos;
    }
  }
}

void FluidNetwork::add_flow(FlowSpec spec, std::coroutine_handle<> h) {
  advance();
  const std::uint32_t slot = alloc_slot();
  const std::uint32_t c = intern_class(spec);
  if (classes_[c].mult++ == 0) link_class(c);
  cls_[slot] = c;
  remaining_[slot] = spec.bytes;
  cold_[slot] = FlowCold{std::move(spec), h};
  // Link at the tail of the insertion-order list.
  prev_[slot] = tail_;
  next_[slot] = kNil;
  if (tail_ != kNil) {
    next_[tail_] = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  mark_dirty(c);
  ++active_;
  peak_flows_ = std::max(peak_flows_, static_cast<int>(active_));
  if (flow_observer_) flow_observer_(eng_->now(), active_flows());
  touch();
}

void FluidNetwork::remove_flow(std::uint32_t slot) {
  const std::uint32_t c = cls_[slot];
  mark_dirty(c);
  if (--classes_[c].mult == 0) unlink_class(c);
  if (prev_[slot] != kNil) {
    next_[prev_[slot]] = next_[slot];
  } else {
    head_ = next_[slot];
  }
  if (next_[slot] != kNil) {
    prev_[next_[slot]] = prev_[slot];
  } else {
    tail_ = prev_[slot];
  }
  cold_[slot] = FlowCold{};
  free_slots_.push_back(slot);
  --active_;
}

void FluidNetwork::mark_dirty(std::uint32_t c) {
  const FlowClass& k = classes_[c];
  if (k.n_uses == 0) {
    dirty_classes_.push_back(c);
    return;
  }
  for (std::uint32_t i = 0; i < k.n_uses; ++i) {
    dirty_resources_.push_back(uses_arena_[k.uses_off + i].resource);
  }
}

void FluidNetwork::touch() {
  if (update_pending_) return;
  update_pending_ = true;
  eng_->schedule_callback(
      [this] {
        update_pending_ = false;
        do_update();
      },
      eng_->now());
}

void FluidNetwork::advance() {
  const Time now = eng_->now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    const ResourceUse* arena = uses_arena_.data();
    for (std::uint32_t s = head_; s != kNil; s = next_[s]) {
      const FlowClass& k = classes_[cls_[s]];
      const double moved = std::min(remaining_[s], k.rate * dt);
      // moved == 0 leaves remaining and served bit-identical (x - 0.0 == x,
      // x + 0.0 * w == x for the non-negative values involved); skipping
      // avoids touching the use list for stalled flows.
      if (moved == 0.0) continue;
      remaining_[s] -= moved;
      const ResourceUse* uses = arena + k.uses_off;
      for (std::uint32_t i = 0; i < k.n_uses; ++i) {
        res_served_[uses[i].resource] += moved * uses[i].weight;
      }
    }
  }
  last_update_ = now;
}

void FluidNetwork::do_update() {
  advance();

  // Complete drained flows; waiters resume at the current timestamp, ahead
  // of the next update callback, so transfers they start are batched into
  // one further water-filling pass. A completed flow's resources become
  // dirty: the bandwidth it frees is redistributed within its component.
  bool completed = false;
  for (std::uint32_t s = head_; s != kNil;) {
    const std::uint32_t next = next_[s];
    if (remaining_[s] <= kRemainderEps) {
      eng_->schedule_now(cold_[s].waiter);
      remove_flow(s);
      completed = true;
    }
    s = next;
  }
  if (completed && flow_observer_) flow_observer_(eng_->now(), active_flows());

  reallocate();

  // Schedule the earliest upcoming completion. A generation token voids
  // this event if the flow set changes first.
  ++completion_gen_;
  double dt_min = std::numeric_limits<double>::infinity();
  for (std::uint32_t s = head_; s != kNil; s = next_[s]) {
    const double rate = classes_[cls_[s]].rate;
    if (rate > 0.0) dt_min = std::min(dt_min, remaining_[s] / rate);
  }
  if (std::isfinite(dt_min)) {
    dt_min = std::max(dt_min, kMinCompletionDt);
    const auto gen = completion_gen_;
    eng_->schedule_callback(
        [this, gen] {
          if (gen == completion_gen_) do_update();
        },
        eng_->now() + dt_min);
  }
}

void FluidNetwork::reallocate() {
  // Expand the dirty seeds into the affected connected component(s) of the
  // class/resource sharing graph. Classes outside keep their current rates:
  // the progressive-filling rounds below never read an unaffected class or
  // resource, and by the component-decomposition property of max-min
  // fairness the result is bit-identical to a from-scratch solve (the
  // retained waterfill_reference; pinned by the incremental property test).
  if (dirty_resources_.empty() && dirty_classes_.empty()) return;
  ++mark_epoch_;
  affected_res_.clear();
  affected_cls_.clear();
  for (const ResourceId r : dirty_resources_) {
    if (resources_[r].mark != mark_epoch_) {
      resources_[r].mark = mark_epoch_;
      affected_res_.push_back(r);
    }
  }
  dirty_resources_.clear();
  for (const std::uint32_t c : dirty_classes_) {
    if (classes_[c].mult > 0 && classes_[c].mark != mark_epoch_) {
      classes_[c].mark = mark_epoch_;
      affected_cls_.push_back(c);
    }
  }
  dirty_classes_.clear();
  bool integral = true;
  for (std::size_t i = 0; i < affected_res_.size(); ++i) {
    // affected_res_ grows as the BFS expands; index loop, no iterators.
    const Resource& r = resources_[affected_res_[i]];
    for (const std::uint64_t e : r.entries) {
      const auto c = static_cast<std::uint32_t>(e >> 32);
      FlowClass& k = classes_[c];
      if (k.mark == mark_epoch_) continue;
      k.mark = mark_epoch_;
      affected_cls_.push_back(c);
      integral = integral && k.integral;
      const ResourceUse* uses = uses_arena_.data() + k.uses_off;
      for (std::uint32_t j = 0; j < k.n_uses; ++j) {
        Resource& ru = resources_[uses[j].resource];
        if (ru.mark != mark_epoch_) {
          ru.mark = mark_epoch_;
          affected_res_.push_back(uses[j].resource);
        }
      }
    }
  }
  if (affected_cls_.empty()) return;

  for (const std::uint32_t c : affected_cls_) {
    classes_[c].rate = 0.0;
    classes_[c].frozen = false;
  }
  if (res_avail_.size() < resources_.size()) {
    res_avail_.resize(resources_.size());
    res_pending_.resize(resources_.size());
    res_bn_.resize(resources_.size());
    res_live_.resize(resources_.size());
  }
  const auto nclasses = static_cast<std::uint32_t>(affected_cls_.size());
  std::uint32_t unfrozen = nclasses;
  order_.clear();

  // Progressive filling over the affected component, one decision per
  // class (see waterfill_reference for the algorithm notes; every value the
  // rounds compare or divide is bit-identical to the per-flow solve):
  //   - pending weights: when every weight in the component is a small
  //     integer, all partial sums are exact, so a class adds mult * w in any
  //     order. Otherwise the sum is order-dependent and runs per flow in
  //     start order, as the reference does.
  //   - min-cap, share and the bottleneck test are order-free mins and
  //     compares, and members of a class freeze together at the same rate.
  //   - the frozen flows' avail = max(0, avail - rate * w) fold is
  //     order-dependent, so it runs per flow in start order (over the uses
  //     plan_fold keeps).
  while (unfrozen > 0) {
    for (const ResourceId rid : affected_res_) {
      res_avail_[rid] = res_cap_[rid];
      res_pending_[rid] = 0.0;
    }
    if (integral) {
      for (const std::uint32_t c : affected_cls_) {
        const FlowClass& k = classes_[c];
        if (k.frozen) continue;
        const double mult = k.mult;
        const ResourceUse* uses = uses_arena_.data() + k.uses_off;
        for (std::uint32_t i = 0; i < k.n_uses; ++i) {
          res_pending_[uses[i].resource] += mult * uses[i].weight;
        }
      }
    }
    if (!integral || unfrozen < nclasses) {
      if (order_.empty()) {
        // The insertion-order list is sorted by start, so filtering it on
        // the class mark yields the component's flows in start order.
        for (std::uint32_t s = head_; s != kNil; s = next_[s]) {
          if (classes_[cls_[s]].mark == mark_epoch_) order_.push_back(cls_[s]);
        }
      }
      if (unfrozen < nclasses) plan_fold();
      for (const std::uint32_t c : order_) {
        const FlowClass& k = classes_[c];
        if (k.frozen) {
          const FoldStep* steps = fold_.data() + k.fold_off;
          for (std::uint32_t i = 0; i < k.fold_n; ++i) {
            const FoldStep& st = steps[i];
            res_avail_[st.resource] =
                std::max(0.0, res_avail_[st.resource] - st.amount);
          }
        } else if (!integral) {
          const ResourceUse* uses = uses_arena_.data() + k.uses_off;
          for (std::uint32_t i = 0; i < k.n_uses; ++i) {
            res_pending_[uses[i].resource] += uses[i].weight;
          }
        }
      }
    }

    double share = std::numeric_limits<double>::infinity();
    for (const ResourceId rid : affected_res_) {
      if (res_pending_[rid] > 0.0) {
        share = std::min(share, res_avail_[rid] / res_pending_[rid]);
      }
    }
    double min_cap = std::numeric_limits<double>::infinity();
    for (const std::uint32_t c : affected_cls_) {
      if (!classes_[c].frozen) min_cap = std::min(min_cap, classes_[c].cap);
    }

    if (min_cap <= share) {
      for (const std::uint32_t c : affected_cls_) {
        FlowClass& k = classes_[c];
        if (k.frozen || k.cap != min_cap) continue;
        k.frozen = true;
        k.rate = min_cap;
        --unfrozen;
      }
      continue;
    }

    bool any_bottleneck = false;
    for (const ResourceId rid : affected_res_) {
      const bool bn = res_pending_[rid] > 0.0 &&
                      res_avail_[rid] / res_pending_[rid] <=
                          share * (1.0 + 1e-9);
      res_bn_[rid] = bn;
      any_bottleneck = any_bottleneck || bn;
    }
    if (!any_bottleneck) {
      // Only cap-free, resource-free flows remain: impossible (validated),
      // but guard against an infinite loop.
      throw SimError("FluidNetwork: water-filling failed to converge");
    }
    for (const std::uint32_t c : affected_cls_) {
      FlowClass& k = classes_[c];
      if (k.frozen) continue;
      const ResourceUse* uses = uses_arena_.data() + k.uses_off;
      bool bottlenecked = false;
      for (std::uint32_t i = 0; i < k.n_uses; ++i) {
        if (res_bn_[uses[i].resource]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      k.frozen = true;
      k.rate = share;
      --unfrozen;
    }
  }
}

void FluidNetwork::plan_fold() {
  // A resource has pending weight exactly when an unfrozen class crosses it
  // (weights are positive), and only such resources' avail is read by the
  // share and bottleneck tests. So each frozen class folds only its uses on
  // those resources; every resource that is read still sees all its frozen
  // flows, in start order. rate * weight is the same product for every
  // member, so it is taken once per class (the build is ISO C++, where GCC
  // does not contract a product into the subtraction as an FMA).
  for (const ResourceId rid : affected_res_) res_live_[rid] = 0;
  for (const std::uint32_t c : affected_cls_) {
    const FlowClass& k = classes_[c];
    if (k.frozen) continue;
    const ResourceUse* uses = uses_arena_.data() + k.uses_off;
    for (std::uint32_t i = 0; i < k.n_uses; ++i) {
      res_live_[uses[i].resource] = 1;
    }
  }
  fold_.clear();
  for (const std::uint32_t c : affected_cls_) {
    FlowClass& k = classes_[c];
    if (!k.frozen) continue;
    k.fold_off = static_cast<std::uint32_t>(fold_.size());
    const ResourceUse* uses = uses_arena_.data() + k.uses_off;
    for (std::uint32_t i = 0; i < k.n_uses; ++i) {
      if (res_live_[uses[i].resource]) {
        fold_.push_back(FoldStep{uses[i].resource, k.rate * uses[i].weight});
      }
    }
    k.fold_n = static_cast<std::uint32_t>(fold_.size()) - k.fold_off;
  }
}

std::vector<FluidNetwork::FlowSnapshot> FluidNetwork::snapshot() const {
  std::vector<FlowSnapshot> out;
  out.reserve(active_);
  for (std::uint32_t s = head_; s != kNil; s = next_[s]) {
    out.push_back(
        FlowSnapshot{&cold_[s].spec, remaining_[s], classes_[cls_[s]].rate});
  }
  return out;
}

}  // namespace hmca::sim
