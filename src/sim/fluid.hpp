// Max-min fair fluid-flow bandwidth model.
//
// Every data movement in the simulated cluster (NIC transfer, CMA copy,
// shared-memory copy, reduction sweep) is a *flow* draining a byte count
// through a set of capacity *resources* (HCA tx/rx ports, node memory
// systems). Whenever the active-flow set changes, rates are recomputed by
// progressive filling (water-filling) so concurrent flows share bandwidth
// max-min fairly, subject to:
//   - per-resource capacities (bytes/s),
//   - per-flow *weights* on each resource (a CPU copy consumes 2 bytes of
//     memory traffic per payload byte: one read + one write),
//   - an optional per-flow rate cap (e.g. single-core copy throughput).
//
// The congestion effects the paper models empirically — the `b` factor for
// saturated memory and the `cg(M, L-1)` copy-out factor — emerge from this
// sharing instead of being hard-coded.
//
// Rate recomputation is batched per virtual timestamp *and incremental*:
// when flows start or finish, only the affected connected component of the
// flow/resource sharing graph is re-water-filled — flows that share no
// resource (transitively) with a changed flow keep their rates untouched.
// Because max-min fair allocations decompose exactly over connected
// components (the progressive-filling rounds of one component never read
// another component's state), the incremental result is bit-identical to a
// from-scratch solve; waterfill_reference() retains the from-scratch
// algorithm as the differential oracle the property tests compare against.
//
// The solve runs per *flow class*: live flows with the same exact
// (resource, weight) use list and the same rate cap, counted by a
// multiplicity. Members of a class always freeze together at one rate, so
// the component BFS, min-cap, share, bottleneck test and freezing run once
// per class. The FP sequence stays the per-flow reference's:
//   - when every weight in the component is a small integer, pending sums
//     are exact, so a class adds mult * w in any order;
//   - mins and compares are order-free;
//   - the later rounds' avail = max(0, avail - rate * w) fold over frozen
//     flows rounds at each step, so it runs per flow in start order, onto
//     the resources that still have pending weight (the only ones read);
//   - a component with any non-integer weight (degraded rails, user-set
//     weights) also sums its pending weights per flow in start order.
//
// Flow state is arena-allocated with the hot per-flow fields (remaining
// bytes, class id) in struct-of-arrays form, so the per-timestamp advance
// sweep touches dense arrays instead of pointer-chasing a list.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace hmca::sim {

using ResourceId = std::uint32_t;

/// Sentinel: the flow has no intrinsic rate cap.
inline constexpr double kNoRateCap = std::numeric_limits<double>::infinity();

/// One resource requirement of a flow: for every payload byte moved, the
/// flow consumes `weight` bytes of the resource's capacity.
struct ResourceUse {
  ResourceId resource;
  double weight = 1.0;
};

/// Specification of a flow: the payload byte count, the resources it
/// crosses, and an optional payload-rate cap.
struct FlowSpec {
  std::vector<ResourceUse> uses;
  double bytes = 0.0;
  double rate_cap = kNoRateCap;
};

/// A from-scratch max-min water-filling solve: the rate of every flow given
/// resource capacities, flow resource uses and rate caps. This is the
/// original (pre-incremental) algorithm, retained as the reference oracle:
/// the incremental solver inside FluidNetwork must match it to the bit at
/// every settle point (asserted by tests/sim/test_fluid_incremental.cpp).
struct ReferenceFlow {
  std::vector<ResourceUse> uses;
  double rate_cap = kNoRateCap;
};
std::vector<double> waterfill_reference(const std::vector<double>& capacities,
                                        const std::vector<ReferenceFlow>& flows);

class FluidNetwork {
 public:
  explicit FluidNetwork(Engine& eng) : eng_(&eng) {}
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Register a capacity resource (bytes of traffic per second).
  /// `name` only labels the error thrown on a non-positive capacity.
  ResourceId add_resource(const std::string& name,
                          double capacity_bytes_per_s);

  double capacity(ResourceId r) const { return res_cap_.at(r); }
  /// Total traffic (payload * weight) served by a resource so far.
  double bytes_served(ResourceId r) const { return res_served_.at(r); }
  std::size_t resource_count() const { return resources_.size(); }
  int active_flows() const { return static_cast<int>(active_); }
  /// Highest number of simultaneously active flows observed.
  int peak_flows() const { return peak_flows_; }

  /// Observer invoked with (now, active_flows) whenever the active-flow
  /// count changes (flow added, flows completed). Pure telemetry: the
  /// observer must not start flows or advance time. One observer at a
  /// time; pass nullptr to detach.
  using FlowObserver = std::function<void(Time, int)>;
  void set_flow_observer(FlowObserver fn) { flow_observer_ = std::move(fn); }

  /// Diagnostic/testing snapshot of one active flow (insertion order).
  struct FlowSnapshot {
    const FlowSpec* spec;
    double remaining;
    double rate;
  };
  /// All active flows in start order, with their current remaining bytes
  /// and allocated rates. Rates are settled values only *between* update
  /// timestamps (recomputation is batched per timestamp).
  std::vector<FlowSnapshot> snapshot() const;

  /// Awaitable: start a flow and suspend until its bytes have drained.
  /// A flow with no resources completes at rate `rate_cap` (which must then
  /// be finite); zero-byte flows complete immediately.
  auto transfer(FlowSpec spec) {
    struct Awaiter {
      FluidNetwork* net;
      FlowSpec spec;
      bool await_ready() const noexcept { return spec.bytes <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        net->add_flow(std::move(spec), h);
      }
      void await_resume() const noexcept {}
    };
    validate(spec);
    return Awaiter{this, std::move(spec)};
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Resource {
    // Affected-component BFS mark (epoch-stamped, no per-update clears).
    std::uint64_t mark = 0;
    // Live flow classes crossing this resource: one entry per class use,
    // packed as (class id, use index) so unlinking a class can fix up the
    // moved entry's back-pointer after a swap-delete.
    std::vector<std::uint64_t> entries;
  };

  /// A flow class: the flows with one exact use list and one rate cap.
  /// Every max-min rule treats such flows alike, so they always freeze
  /// together at the same rate, which the class carries. A class whose last
  /// member completes is unlinked from its resources but stays interned, so
  /// a later flow with the same key revives it.
  struct FlowClass {
    std::uint32_t uses_off = 0;      // into uses_arena_ and entry_pos_
    std::uint32_t n_uses = 0;
    std::uint32_t mult = 0;          // live member flows
    std::uint32_t hash_next = kNil;  // next class with the same key hash
    double cap = kNoRateCap;
    double rate = 0.0;
    std::uint64_t mark = 0;  // affected-component BFS epoch
    bool integral = false;   // every weight is a small exact integer
    // Water-filling scratch: frozen yet, and (once frozen) the block of
    // fold_ this class's flows subtract from avail each later round.
    bool frozen = false;
    std::uint32_t fold_off = 0;
    std::uint32_t fold_n = 0;
  };

  /// One frozen-flow avail subtraction: rate * weight on one resource.
  struct FoldStep {
    ResourceId resource;
    double amount;
  };

  /// Cold per-flow state; the hot fields live in the parallel SoA arrays
  /// remaining_/cls_ below, which the advance sweep iterates.
  struct FlowCold {
    FlowSpec spec;
    std::coroutine_handle<> waiter;
  };

  static std::uint64_t pack_entry(std::uint32_t cls, std::uint32_t use) {
    return (static_cast<std::uint64_t>(cls) << 32) | use;
  }

  void validate(const FlowSpec& spec) const;
  void add_flow(FlowSpec spec, std::coroutine_handle<> h);
  std::uint32_t alloc_slot();
  std::uint32_t intern_class(const FlowSpec& spec);
  void link_class(std::uint32_t c);    // list a revived class on resources
  void unlink_class(std::uint32_t c);  // drop an emptied class from them
  void remove_flow(std::uint32_t slot);
  void touch();        // request an update at the current timestamp
  void do_update();    // advance, complete, re-water-fill, schedule next
  void advance();      // progress all flows to eng_->now()
  void mark_dirty(std::uint32_t c);  // queue a class's resources
  void reallocate();   // incremental max-min water-filling over dirty set
  void plan_fold();    // a later round's frozen-class fold steps

  Engine* eng_;
  std::vector<Resource> resources_;
  // Hot per-resource scalars, dense by ResourceId: the advance sweep and
  // the water-filling reset loop stay within a couple of cache lines
  // instead of striding over the entries-carrying structs.
  std::vector<double> res_cap_;
  std::vector<double> res_served_;

  // Flow classes, interned by a hash of (uses, cap) with per-hash chains.
  // Each class's uses sit in one contiguous block of uses_arena_; entry_pos_
  // parallels it with each use's position inside Resource::entries.
  std::vector<FlowClass> classes_;
  std::unordered_map<std::uint64_t, std::uint32_t> class_index_;
  std::vector<ResourceUse> uses_arena_;
  std::vector<std::uint32_t> entry_pos_;

  // Flow arena: SoA hot arrays + cold sidecar, linked in insertion order
  // (the list links are themselves SoA so traversals that skip a flow —
  // the advance sweep, the completion scan — never touch its cold struct).
  std::vector<double> remaining_;
  std::vector<std::uint32_t> cls_;  // class id of each flow slot
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
  std::vector<FlowCold> cold_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNil, tail_ = kNil;
  std::size_t active_ = 0;

  // Dirty set accumulated since the last reallocation.
  std::vector<ResourceId> dirty_resources_;
  std::vector<std::uint32_t> dirty_classes_;  // seeds for resource-free classes
  std::uint64_t mark_epoch_ = 0;

  // Reallocation scratch (kept hot across updates to avoid allocation).
  std::vector<ResourceId> affected_res_;
  std::vector<std::uint32_t> affected_cls_;  // BFS discovery order
  std::vector<std::uint32_t> order_;  // affected flows' classes, start order
  std::vector<double> res_avail_;    // indexed by ResourceId
  std::vector<double> res_pending_;  // indexed by ResourceId
  std::vector<char> res_bn_;         // indexed by ResourceId
  std::vector<char> res_live_;       // indexed by ResourceId
  std::vector<FoldStep> fold_;

  Time last_update_ = kTimeZero;
  bool update_pending_ = false;
  std::uint64_t completion_gen_ = 0;
  int peak_flows_ = 0;
  FlowObserver flow_observer_;
};

}  // namespace hmca::sim
