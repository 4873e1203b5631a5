#include "coll/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hmca::coll {

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::kCopy: return "copy";
    case TaskKind::kShmIn: return "shm_in";
    case TaskKind::kShmOut: return "shm_out";
    case TaskKind::kSend: return "send";
    case TaskKind::kRecv: return "recv";
    case TaskKind::kCma: return "cma";
    case TaskKind::kRdma: return "rdma";
    case TaskKind::kReduce: return "reduce";
    case TaskKind::kWrapped: return "wrapped";
  }
  return "?";
}

// ---- TaskGraph ----

int TaskGraph::add(TaskKind kind, Lane lane, Body body, TaskOpts opts) {
  if (!body) throw std::invalid_argument("TaskGraph::add: empty body");
  nodes_.push_back(Node{std::move(body), kind, lane, std::move(opts), 0, {}});
  return static_cast<int>(nodes_.size()) - 1;
}

void TaskGraph::depend(int task, int on) {
  auto& t = nodes_.at(static_cast<std::size_t>(task));
  auto& p = nodes_.at(static_cast<std::size_t>(on));
  if (task == on) throw std::invalid_argument("TaskGraph::depend: self edge");
  p.out.push_back(task);
  ++t.deps;
}

void TaskGraph::depend_external(int task) {
  ++nodes_.at(static_cast<std::size_t>(task)).deps;
  ++externals_;
}

std::vector<int> RangeProducers::covering(std::size_t offset,
                                          std::size_t len) const {
  std::vector<int> out;
  const std::size_t hi = offset + len;
  for (const auto& e : spans_) {
    if (e.lo < hi && offset < e.hi) out.push_back(e.task);
  }
  return out;
}

// ---- GraphExecutor ----

GraphExecutor::GraphExecutor(sim::Engine& eng, obs::Sink& sink, int grank,
                             ExecOptions opts)
    : eng_(&eng), sink_(&sink), grank_(grank), opts_(std::move(opts)),
      cv_(eng), cpu_sem_(eng, 1), shm_sem_(eng, 1) {}

sim::Semaphore* GraphExecutor::lane_sem(Lane lane) {
  switch (lane) {
    case Lane::kNone: return nullptr;
    case Lane::kCpu: return &cpu_sem_;
    case Lane::kShm: return &shm_sem_;
  }
  return nullptr;
}

void GraphExecutor::satisfy(int task) {
  if (g_ == nullptr) {
    // A completion callback outran run() (e.g. a zero-length recv that
    // finished at post time); applied when the graph attaches.
    early_satisfies_.push_back(task);
    return;
  }
  auto& n = g_->nodes_.at(static_cast<std::size_t>(task));
  if (n.deps <= 0) {
    throw std::logic_error("GraphExecutor::satisfy: task already ready");
  }
  --ext_pending_;
  if (--n.deps == 0) ready_.push_back(task);
  cv_.notify_all();
}

void GraphExecutor::on_complete(int id) {
  auto& n = g_->nodes_[static_cast<std::size_t>(id)];
  const int pidx = phase_idx_[static_cast<std::size_t>(id)];
  if (pidx >= 0) {
    auto& ps = phases_[static_cast<std::size_t>(pidx)];
    if (--ps.remaining == 0 && ps.open) ps.span.close(eng_->now());
  }
  for (const int s : n.out) {
    if (--g_->nodes_[static_cast<std::size_t>(s)].deps == 0) {
      ready_.push_back(s);
    }
  }
  --in_flight_;
  ++completed_;
  cv_.notify_all();
}

sim::Task<void> GraphExecutor::run_one(int id) {
  auto& n = g_->nodes_[static_cast<std::size_t>(id)];
  sim::Semaphore* lane = lane_sem(n.lane);
  if (lane != nullptr) co_await lane->acquire();

  ++in_flight_;
  max_in_flight_ = std::max(max_in_flight_, in_flight_);

  const int pidx = phase_idx_[static_cast<std::size_t>(id)];
  if (pidx >= 0) {
    auto& ps = phases_[static_cast<std::size_t>(pidx)];
    if (!ps.open) {
      ps.span = sink_->open(grank_, trace::Kind::kPhase, eng_->now(), -1, 0,
                            ps.name);
      ps.open = true;
    }
  }

  std::string label;
  if (sink_->wants_spans()) {
    label = "task:";
    label += task_kind_name(n.kind);
    if (!n.opts.label.empty()) {
      label += ':';
      label += n.opts.label;
    }
    if (n.opts.chunk >= 0) {
      label += "#c";
      label += std::to_string(n.opts.chunk);
    }
  }
  auto span = sink_->open(grank_, trace::Kind::kTask, eng_->now(), n.opts.peer,
                          n.opts.bytes, std::move(label));

  sim::Duration backoff = kTaskRetryBackoff;
  for (int attempt = 0;; ++attempt) {
    try {
      if (opts_.fail_injector && opts_.fail_injector(id, attempt)) {
        throw sim::SimError("injected task fault");
      }
      co_await n.body();
      break;
    } catch (const sim::SimError&) {
      // A macro task holds an SPMD rendezvous: re-running it on a single
      // rank would desync the other ranks (op sequence numbers,
      // shared-object keys), so it never retries. Chunk tasks are
      // idempotent and retry.
      if (attempt >= kMaxTaskRetries || n.kind == TaskKind::kWrapped) {
        if (!error_) error_ = std::current_exception();
        break;
      }
      // Fall through to the retry path (the only way past the catch).
    } catch (...) {
      if (!error_) error_ = std::current_exception();
      break;
    }
    // Re-enqueue after a bounded backoff: by then net has restriped
    // around dead rails / the transient burst has passed.
    ++retries_;
    sink_->count("coll.task_retries", 1);
    sink_->record(trace::Span{grank_, trace::Kind::kPhase, eng_->now(),
                              eng_->now(), -1, n.opts.bytes,
                              "fault:task retry " +
                                  std::string(task_kind_name(n.kind))});
    co_await eng_->sleep(backoff);
    backoff *= 2;
  }

  span.close(eng_->now());
  if (lane != nullptr) lane->release();
  on_complete(id);
}

sim::Task<void> GraphExecutor::run(TaskGraph& g) {
  if (running_) throw std::logic_error("GraphExecutor::run: already running");
  running_ = true;
  g_ = &g;
  completed_ = 0;
  in_flight_ = 0;
  max_in_flight_ = 0;
  error_ = nullptr;
  ready_.clear();
  phases_.clear();

  const std::size_t total = g.nodes_.size();
  ext_pending_ = g.externals_;
  phase_idx_.assign(total, -1);
  for (std::size_t i = 0; i < total; ++i) {
    if (g.nodes_[i].deps == 0) ready_.push_back(static_cast<int>(i));
    const std::string& phase = g.nodes_[i].opts.phase;
    if (phase.empty()) continue;
    int pidx = -1;
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      if (phases_[p].name == phase) {
        pidx = static_cast<int>(p);
        break;
      }
    }
    if (pidx < 0) {
      pidx = static_cast<int>(phases_.size());
      phases_.emplace_back();
      phases_.back().name = phase;
    }
    phase_idx_[i] = pidx;
    ++phases_[static_cast<std::size_t>(pidx)].remaining;
  }
  for (const int t : early_satisfies_) satisfy(t);
  early_satisfies_.clear();

  std::size_t launched = 0;
  while (completed_ < total && !error_) {
    if (!ready_.empty()) {
      const int id = ready_.front();
      ready_.pop_front();
      ++launched;
      eng_->spawn(run_one(id));
      continue;
    }
    if (launched == completed_ && ext_pending_ == 0) {
      // Nothing runs, nothing is ready, and no external completion is
      // outstanding: the remaining tasks form a dependency cycle.
      running_ = false;
      g_ = nullptr;
      throw sim::SimError("GraphExecutor: task graph stalled (" +
                          std::to_string(total - completed_) +
                          " tasks blocked in a dependency cycle)");
    }
    co_await cv_.wait();
  }
  // Drain stragglers before surfacing an error so no task body outlives
  // the graph it references.
  while (in_flight_ > 0 || launched > completed_) co_await cv_.wait();

  // Close leftover open phase spans (error path) in name order, matching
  // the ordering the previous string-keyed map produced. On the normal
  // path nothing is left open and the sort is skipped.
  bool leftover = false;
  for (const auto& ps : phases_) {
    if (ps.open && ps.remaining > 0) {
      leftover = true;
      break;
    }
  }
  if (leftover) {
    std::vector<std::size_t> order(phases_.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return phases_[a].name < phases_[b].name;
    });
    for (const std::size_t p : order) {
      auto& ps = phases_[p];
      if (ps.open && ps.remaining > 0) ps.span.close(eng_->now());
    }
  }
  sink_->observe("coll.pipeline_depth", static_cast<double>(max_in_flight_));
  running_ = false;
  g_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

// ---- Chunk policy ----

namespace {
long long g_chunk_override = -1;
}  // namespace

void set_chunk_bytes_override(long long bytes) { g_chunk_override = bytes; }

std::size_t configured_chunk_bytes() {
  return g_chunk_override >= 0 ? static_cast<std::size_t>(g_chunk_override)
                               : 0;
}

int chunks_for(std::size_t bytes) {
  constexpr std::size_t kAutoFloor = 64 * 1024;
  if (bytes == 0) return 1;
  std::size_t cb = configured_chunk_bytes();
  if (cb == 0) {
    if (bytes <= kAutoFloor) return 1;
    cb = std::max(bytes / static_cast<std::size_t>(kMaxChunks), kAutoFloor);
  }
  const std::size_t n = (bytes + cb - 1) / cb;
  return static_cast<int>(
      std::min<std::size_t>(std::max<std::size_t>(n, 1), kMaxChunks));
}

std::pair<std::size_t, std::size_t> chunk_range(std::size_t bytes, int chunks,
                                                int c) {
  const std::size_t per =
      (bytes + static_cast<std::size_t>(chunks) - 1) /
      static_cast<std::size_t>(chunks);
  const std::size_t off = std::min(bytes, per * static_cast<std::size_t>(c));
  const std::size_t len = std::min(bytes - off, per);
  return {off, len};
}

sim::Task<void> noop_task() { co_return; }

}  // namespace hmca::coll
