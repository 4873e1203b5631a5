#include "mpi/comm.hpp"

#include <stdexcept>
#include <utility>

namespace hmca::mpi {

Comm::Comm(World& world, int ctx, std::vector<int> granks)
    : world_(&world), ctx_(ctx), granks_(std::move(granks)) {
  if (granks_.empty()) throw std::invalid_argument("Comm: empty rank list");
  from_global_.assign(world.cluster().world_size(), -1);
  for (std::size_t i = 0; i < granks_.size(); ++i) {
    const int g = granks_[i];
    if (g < 0 || g >= world.cluster().world_size()) {
      throw std::invalid_argument("Comm: rank out of range");
    }
    if (from_global_[static_cast<std::size_t>(g)] != -1) {
      throw std::invalid_argument("Comm: duplicate rank");
    }
    from_global_[static_cast<std::size_t>(g)] = static_cast<int>(i);
  }
  op_seq_.assign(granks_.size(), 0);
  barrier_ = std::make_unique<sim::Barrier>(world.engine(),
                                            static_cast<int>(granks_.size()));
}

int Comm::from_global(int g) const {
  if (g < 0 || g >= static_cast<int>(from_global_.size())) return -1;
  return from_global_[static_cast<std::size_t>(g)];
}

int Comm::node_of(int r) const { return cluster().node_of(to_global(r)); }
int Comm::node_local_rank(int r) const {
  return cluster().local_rank(to_global(r));
}

hw::Cluster& Comm::cluster() const noexcept { return world_->cluster(); }
net::Net& Comm::net() const noexcept { return world_->net(); }
shm::NodeShare& Comm::share() const noexcept { return world_->share(); }
sim::Engine& Comm::engine() const noexcept { return world_->engine(); }
obs::Sink& Comm::sink() const noexcept { return world_->sink(); }

int Comm::wire_tag(int tag) const {
  if (tag == kAnyTag) return kAnyTag;
  if (tag < 0 || tag > kMaxUserTag) {
    throw std::invalid_argument("Comm: tag out of range");
  }
  return (ctx_ << 16) | tag;
}

sim::Task<void> Comm::send(int my, int dst, int tag, hw::BufView data) {
  co_await net().send(to_global(my), to_global(dst), wire_tag(tag), data);
}

sim::Task<void> Comm::recv(int my, int src, int tag, hw::BufView out) {
  const int gsrc = (src == kAnySource) ? kAnySource : to_global(src);
  co_await net().recv(to_global(my), gsrc, wire_tag(tag), out);
}

sim::Task<void> Comm::run_and_signal(sim::Task<void> op,
                                     std::shared_ptr<Request::State> st) {
  co_await std::move(op);
  st->done = true;
  st->cv.notify_all();
  auto callbacks = std::move(st->callbacks);
  st->callbacks.clear();
  for (auto& fn : callbacks) fn();
}

Request Comm::isend(int my, int dst, int tag, hw::BufView data) {
  Request r;
  r.st_ = std::make_shared<Request::State>(engine());
  engine().spawn(run_and_signal(send(my, dst, tag, data), r.st_));
  return r;
}

Request Comm::irecv(int my, int src, int tag, hw::BufView out) {
  Request r;
  r.st_ = std::make_shared<Request::State>(engine());
  engine().spawn(run_and_signal(recv(my, src, tag, out), r.st_));
  return r;
}

sim::Task<void> Comm::wait(Request r) {
  if (!r.valid()) throw std::invalid_argument("Comm::wait: invalid request");
  // Keep the state alive via the local copy and loop manually; passing an
  // owning capture into the wait_until coroutine parameter trips a GCC 12
  // double-destruction bug in coroutine frames.
  const auto st = r.st_;
  while (!st->done) co_await st->cv.wait();
}

sim::Task<void> Comm::wait_all(std::vector<Request> rs) {
  for (auto& r : rs) co_await wait(r);
}

sim::Task<void> Comm::sendrecv(int my, int dst, int stag, hw::BufView sdata,
                               int src, int rtag, hw::BufView rout) {
  Request rr = irecv(my, src, rtag, rout);
  co_await send(my, dst, stag, sdata);
  co_await wait(std::move(rr));
}

sim::Task<void> Comm::barrier(int my) {
  (void)my;
  co_await barrier_->arrive_and_wait();
}

World::World(sim::Engine& eng, hw::ClusterSpec spec, obs::Sink& sink)
    : eng_(&eng), cluster_(eng, spec), sink_(&sink), net_(cluster_, sink) {
  // Fault events become zero-length kPhase spans on the affected node's
  // first rank (rank 0 for whole-cluster events), so degraded runs are
  // diagnosable from the ordinary trace; the metric channel additionally
  // counts transitions and tracks the shrinking healthy-rail floor.
  cluster_.set_fault_listener([this](const sim::FaultEvent& e) {
    const sim::Time now = eng_->now();
    sink_->record(trace::Span{
        cluster_.global_rank(e.node < 0 ? 0 : e.node, 0),
        trace::Kind::kPhase, now, now, /*peer=*/-1, /*bytes=*/0,
        "fault:" + e.describe()});
    if (sink_->wants_metrics()) {
      const char* name = e.kind == sim::FaultKind::kKill
                             ? "cluster.rail.kill"
                             : "cluster.rail.degrade";
      sink_->count(name, 1,
                   {{"node", e.node < 0 ? "*" : std::to_string(e.node)},
                    {"rail", e.hca < 0 ? "*" : std::to_string(e.hca)}});
      sink_->gauge("cluster.min_alive_rails", cluster_.min_alive_rails());
      // Stamped at the first transition and left alone after: the virtual
      // time since which the cluster has not been fully healthy.
      if (cluster_.degraded_count() == 1) {
        sink_->gauge("cluster.degraded_since_us", sim::to_us(now));
      }
    }
    if (sink_->wants_timeline()) {
      // Point samples of the affected rails' bandwidth factor (0 = dead),
      // so a degraded-run timeline shows exactly when each rail went
      // quiet. Wildcard events fan out to every matching rail.
      const int n0 = e.node < 0 ? 0 : e.node;
      const int n1 = e.node < 0 ? cluster_.nodes() : e.node + 1;
      const int h0 = e.hca < 0 ? 0 : e.hca;
      const int h1 = e.hca < 0 ? cluster_.hcas() : e.hca + 1;
      for (int n = n0; n < n1; ++n) {
        for (int h = h0; h < h1; ++h) {
          sink_->sample({"net.rail.health",
                         {{"node", std::to_string(n)},
                          {"rail", std::to_string(h)}},
                         now, now,
                         cluster_.rail_alive(n, h)
                             ? cluster_.rail_bw_factor(n, h)
                             : 0.0});
        }
      }
    }
  });
  if (sink_->wants_timeline()) {
    // Active-flow count of the fluid network as a step series ("sim.flows"
    // point samples hold until the next one).
    cluster_.net().set_flow_observer([this](sim::Time t, int flows) {
      sink_->sample(
          {"sim.flows", {}, t, t, static_cast<double>(flows)});
    });
  }
  std::vector<int> all(static_cast<std::size_t>(cluster_.world_size()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  comms_.push_back(
      std::unique_ptr<Comm>(new Comm(*this, next_ctx_++, std::move(all))));
  node_comms_.assign(static_cast<std::size_t>(cluster_.nodes()), nullptr);
}

Comm& World::create_comm(std::vector<int> global_ranks) {
  comms_.push_back(std::unique_ptr<Comm>(
      new Comm(*this, next_ctx_++, std::move(global_ranks))));
  return *comms_.back();
}

Comm& World::node_comm(int node) {
  auto& slot = node_comms_.at(static_cast<std::size_t>(node));
  if (slot == nullptr) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(cluster_.ppn()));
    for (int l = 0; l < cluster_.ppn(); ++l) {
      ranks.push_back(cluster_.global_rank(node, l));
    }
    slot = &create_comm(std::move(ranks));
  }
  return *slot;
}

Comm& World::leader_comm() {
  if (leader_comm_ == nullptr) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(cluster_.nodes()));
    for (int n = 0; n < cluster_.nodes(); ++n) {
      ranks.push_back(cluster_.global_rank(n, 0));
    }
    leader_comm_ = &create_comm(std::move(ranks));
  }
  return *leader_comm_;
}

Comm& World::group_leader_comm(int groups) {
  if (groups < 1 || cluster_.ppn() % groups != 0) {
    throw std::invalid_argument(
        "group_leader_comm: ppn must be divisible by groups");
  }
  auto it = group_leader_comms_.find(groups);
  if (it == group_leader_comms_.end()) {
    const int gs = cluster_.ppn() / groups;
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(cluster_.nodes() * groups));
    for (int n = 0; n < cluster_.nodes(); ++n) {
      for (int g = 0; g < groups; ++g) {
        ranks.push_back(cluster_.global_rank(n, g * gs));
      }
    }
    it = group_leader_comms_.emplace(groups, &create_comm(std::move(ranks)))
             .first;
  }
  return *it->second;
}

Comm& World::span_comm(int node, int first_local, int count) {
  if (node < 0 || node >= cluster_.nodes() || first_local < 0 || count < 1 ||
      first_local + count > cluster_.ppn()) {
    throw std::invalid_argument("span_comm: bad node-local span");
  }
  const auto key = std::make_tuple(node, first_local, count);
  auto it = span_comms_.find(key);
  if (it == span_comms_.end()) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(count));
    for (int l = first_local; l < first_local + count; ++l) {
      ranks.push_back(cluster_.global_rank(node, l));
    }
    it = span_comms_.emplace(key, &create_comm(std::move(ranks))).first;
  }
  return *it->second;
}

}  // namespace hmca::mpi
