#include "core/hierarchy.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "coll/bcast.hpp"
#include "coll/phase_span.hpp"
#include "core/hier_detail.hpp"
#include "obs/names.hpp"
#include "osu/env.hpp"
#include "perf/json.hpp"
#include "shm/shm.hpp"

namespace hmca::core {

namespace {

using detail::KeyAlloc;
using detail::stage_groups;

[[noreturn]] void fail(const std::string& msg) { throw HierarchyError(msg); }

LevelKind parse_kind(const std::string& s) {
  if (s == "socket") return LevelKind::kSocket;
  if (s == "adapter-group") return LevelKind::kAdapterGroup;
  if (s == "node") return LevelKind::kNode;
  if (s == "cluster") return LevelKind::kCluster;
  if (s == "custom") return LevelKind::kCustom;
  fail("hierarchy: unknown level kind '" + s +
       "' (expected socket, adapter-group, node, cluster or custom)");
}

LevelTransport parse_transport(const std::string& s) {
  if (s == "auto") return LevelTransport::kAuto;
  if (s == "mha-intra") return LevelTransport::kMhaIntra;
  if (s == "cma") return LevelTransport::kCma;
  if (s == "shm") return LevelTransport::kShm;
  if (s == "rd") return LevelTransport::kRd;
  if (s == "ring") return LevelTransport::kRing;
  fail("hierarchy: unknown level transport '" + s +
       "' (expected auto, mha-intra, cma, shm, rd or ring)");
}

LeaderPolicy parse_leader(const std::string& s) {
  if (s == "first-rank") return LeaderPolicy::kFirstRank;
  fail("hierarchy: unknown leader policy '" + s + "' (expected first-rank)");
}

// Legal transport placements; see the LevelTransport doc in the header.
void check_transport(const HierLevel& lv, bool innermost, bool cluster,
                     int depth) {
  const bool ok = [&] {
    switch (lv.transport) {
      case LevelTransport::kAuto:
        return true;
      case LevelTransport::kMhaIntra:
      case LevelTransport::kCma:
        return innermost && !cluster;
      case LevelTransport::kShm:
        return (innermost && depth == 2) || (!innermost && !cluster);
      case LevelTransport::kRd:
      case LevelTransport::kRing:
        return cluster;
    }
    return false;
  }();
  if (!ok) {
    fail(std::string("hierarchy: transport '") + to_string(lv.transport) +
         "' is not valid on the " + to_string(lv.kind) + " level");
  }
}

}  // namespace

const char* to_string(LevelKind k) {
  switch (k) {
    case LevelKind::kSocket:
      return "socket";
    case LevelKind::kAdapterGroup:
      return "adapter-group";
    case LevelKind::kNode:
      return "node";
    case LevelKind::kCluster:
      return "cluster";
    case LevelKind::kCustom:
      return "custom";
  }
  return "?";
}

const char* to_string(LevelTransport t) {
  switch (t) {
    case LevelTransport::kAuto:
      return "auto";
    case LevelTransport::kMhaIntra:
      return "mha-intra";
    case LevelTransport::kCma:
      return "cma";
    case LevelTransport::kShm:
      return "shm";
    case LevelTransport::kRd:
      return "rd";
    case LevelTransport::kRing:
      return "ring";
  }
  return "?";
}

void HierarchySpec::validate() const {
  if (depth() < 2) {
    fail("hierarchy: at least 2 levels required (node and cluster)");
  }
  for (int i = 0; i < depth(); ++i) {
    const HierLevel& lv = levels[static_cast<std::size_t>(i)];
    const bool outermost = (i == depth() - 1);
    const bool second = (i == depth() - 2);
    if (outermost != (lv.kind == LevelKind::kCluster)) {
      fail("hierarchy: the cluster level must appear exactly once, as the "
           "outermost level");
    }
    if (second != (lv.kind == LevelKind::kNode)) {
      fail("hierarchy: the node level must appear exactly once, directly "
           "below the cluster level");
    }
    if (lv.kind == LevelKind::kCustom) {
      const auto& f = lv.custom_firsts;
      if (f.empty() || f.front() != 0) {
        fail("hierarchy: custom level firsts must start at 0");
      }
      if (!std::is_sorted(f.begin(), f.end()) ||
          std::adjacent_find(f.begin(), f.end()) != f.end()) {
        fail("hierarchy: custom level firsts must be strictly ascending");
      }
    } else if (!lv.custom_firsts.empty()) {
      fail(std::string("hierarchy: firsts are only valid on custom levels "
                       "(found on ") +
           to_string(lv.kind) + ")");
    }
    check_transport(lv, i == 0, outermost, depth());
  }
}

HierarchySpec HierarchySpec::mha(LevelTransport node,
                                 LevelTransport cluster) {
  HierarchySpec s;
  s.levels = {HierLevel{LevelKind::kNode, node, LeaderPolicy::kFirstRank, {}},
              HierLevel{LevelKind::kCluster, cluster,
                        LeaderPolicy::kFirstRank, {}}};
  return s;
}

HierarchySpec HierarchySpec::derive(const hw::ClusterSpec& spec, int depth) {
  int d = depth == 0 ? (spec.sockets_per_node > 1 ? 3 : 2) : depth;
  if (d == 3 && spec.sockets_per_node <= 1) d = 2;  // a 1-socket level adds
                                                    // nothing; collapse
  if (d == 2) return mha();
  if (d != 3) {
    fail("hierarchy: derive supports depth 2 and 3; deeper hierarchies are "
         "expressed with custom/adapter-group levels via from_json");
  }
  HierarchySpec s;
  s.levels = {HierLevel{LevelKind::kSocket, LevelTransport::kAuto,
                        LeaderPolicy::kFirstRank, {}},
              HierLevel{LevelKind::kNode, LevelTransport::kAuto,
                        LeaderPolicy::kFirstRank, {}},
              HierLevel{LevelKind::kCluster, LevelTransport::kAuto,
                        LeaderPolicy::kFirstRank, {}}};
  return s;
}

HierarchySpec HierarchySpec::from_json(const std::string& text) {
  perf::Json doc;
  try {
    doc = perf::Json::parse(text);
  } catch (const perf::JsonError& e) {
    fail(std::string("hierarchy: bad JSON: ") + e.what());
  }
  HierarchySpec s;
  try {
    const auto& levels = doc.at("levels").array();
    for (const auto& lj : levels) {
      HierLevel lv;
      lv.kind = parse_kind(lj.string_at("kind"));
      if (const auto* t = lj.find("transport")) {
        lv.transport = parse_transport(t->string());
      }
      if (const auto* p = lj.find("leader")) {
        lv.leader = parse_leader(p->string());
      }
      if (const auto* f = lj.find("firsts")) {
        for (const auto& v : f->array()) {
          lv.custom_firsts.push_back(v.integer<int>());
        }
      }
      s.levels.push_back(std::move(lv));
    }
  } catch (const perf::JsonError& e) {
    fail(std::string("hierarchy: bad spec document: ") + e.what());
  }
  s.validate();
  return s;
}

std::string HierarchySpec::to_json() const {
  std::ostringstream os;
  os << "{\"levels\": [";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const HierLevel& lv = levels[i];
    if (i > 0) os << ", ";
    os << "{\"kind\": \"" << to_string(lv.kind) << "\", \"transport\": \""
       << to_string(lv.transport) << "\", \"leader\": \"first-rank\"";
    if (lv.kind == LevelKind::kCustom) {
      os << ", \"firsts\": [";
      for (std::size_t j = 0; j < lv.custom_firsts.size(); ++j) {
        if (j > 0) os << ", ";
        os << lv.custom_firsts[j];
      }
      os << "]";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

Hierarchy::Hierarchy(HierarchySpec spec, const hw::Cluster& cluster)
    : spec_(std::move(spec)), ppn_(cluster.ppn()) {
  spec_.validate();
  const auto& cs = cluster.spec();
  const int depth = spec_.depth();
  const int intra = depth - 2;  // levels strictly below the node

  // Node-local group boundaries per level at or below the node (the node
  // level contributes the trivial {0} partition).
  node_firsts_.resize(static_cast<std::size_t>(intra) + 1);
  for (int i = 0; i < intra; ++i) {
    const HierLevel& lv = spec_.levels[static_cast<std::size_t>(i)];
    std::vector<int>& f = node_firsts_[static_cast<std::size_t>(i)];
    switch (lv.kind) {
      case LevelKind::kSocket:
        for (int s = 0; s < cs.sockets_per_node; ++s) {
          f.push_back(cluster.socket_first_local(s));
        }
        break;
      case LevelKind::kAdapterGroup: {
        const int h = cs.hcas_per_node;
        if (h > ppn_) {
          fail("hierarchy: an adapter-group level needs hcas_per_node <= ppn "
               "(got " +
               std::to_string(h) + " HCAs, ppn " + std::to_string(ppn_) + ")");
        }
        for (int a = 0; a < h; ++a) f.push_back((a * ppn_ + h - 1) / h);
        break;
      }
      case LevelKind::kCustom:
        f = lv.custom_firsts;
        if (f.back() >= ppn_) {
          fail("hierarchy: custom level first " + std::to_string(f.back()) +
               " is outside the node (ppn " + std::to_string(ppn_) + ")");
        }
        break;
      default:
        fail(std::string("hierarchy: ") + to_string(lv.kind) +
             " is not an intra-node level");
    }
  }
  node_firsts_[static_cast<std::size_t>(intra)] = {0};

  // Nesting: every outer boundary must also be an inner boundary, so each
  // level's groups are unions of the next-inner level's groups (and, with
  // first-rank leadership, each group's leader leads its first inner
  // group too).
  for (int i = 0; i + 1 <= intra; ++i) {
    const auto& inner = node_firsts_[static_cast<std::size_t>(i)];
    const auto& outer = node_firsts_[static_cast<std::size_t>(i) + 1];
    if (!std::includes(inner.begin(), inner.end(), outer.begin(),
                       outer.end())) {
      fail(std::string("hierarchy: level '") +
           to_string(spec_.levels[static_cast<std::size_t>(i) + 1].kind) +
           "' does not nest over level '" +
           to_string(spec_.levels[static_cast<std::size_t>(i)].kind) +
           "' (every outer group boundary must be an inner boundary)");
    }
  }

  // Materialize the global-rank groups of every level.
  levels_.resize(static_cast<std::size_t>(depth));
  const int nodes = cluster.nodes();
  for (int i = 0; i <= intra; ++i) {  // intra levels + the node level
    ResolvedLevel& rl = levels_[static_cast<std::size_t>(i)];
    rl.kind = spec_.levels[static_cast<std::size_t>(i)].kind;
    rl.transport = spec_.levels[static_cast<std::size_t>(i)].transport;
    const auto& f = node_firsts_[static_cast<std::size_t>(i)];
    for (int n = 0; n < nodes; ++n) {
      for (std::size_t g = 0; g < f.size(); ++g) {
        const int first = f[g];
        const int end = g + 1 < f.size() ? f[g + 1] : ppn_;
        const int gfirst = cluster.global_rank(n, first);
        rl.groups.push_back(HierGroup{gfirst, end - first, gfirst});
      }
    }
  }
  ResolvedLevel& top = levels_.back();
  top.kind = LevelKind::kCluster;
  top.transport = spec_.levels.back().transport;
  top.groups = {HierGroup{0, cluster.world_size(), 0}};
}

int Hierarchy::group_of(int level, int grank) const {
  const auto& groups = levels_.at(static_cast<std::size_t>(level)).groups;
  const auto it = std::upper_bound(
      groups.begin(), groups.end(), grank,
      [](int r, const HierGroup& g) { return r < g.first; });
  if (it == groups.begin()) {
    throw HierarchyError("Hierarchy::group_of: rank before first group");
  }
  return static_cast<int>(it - groups.begin()) - 1;
}

std::string Hierarchy::structure() const {
  std::string out;
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    if (!out.empty()) out += '>';
    out += to_string(it->kind);
    out += ':';
    out += std::to_string(it->groups.size());
  }
  return out;
}

NodePlan Hierarchy::node_plan() const {
  NodePlan plan;
  plan.stages = node_firsts_;
  return plan;
}

sim::Task<void> bcast_hierarchy(mpi::Comm& comm, int my, int root,
                                hw::BufView data, HierarchySpec spec,
                                std::size_t pipeline_chunk) {
  auto& cl = comm.cluster();
  const int l = cl.ppn();
  // Cascade stages, innermost first: one rank per group, then every level
  // at or below the node (the node's {0} last). Only depth >= 3 needs the
  // resolved Hierarchy for its intra-node levels.
  spec.validate();
  std::vector<std::vector<int>> stages = {{0}};
  if (spec.depth() > 2) {
    stages = Hierarchy(std::move(spec), cl).node_plan().stages;
  }
  std::vector<int> ranks(static_cast<std::size_t>(l));
  std::iota(ranks.begin(), ranks.end(), 0);
  stages.insert(stages.begin(), std::move(ranks));

  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("bcast_hierarchy: world comm required");
  }
  if (my < 0 || my >= comm.size() || root < 0 || root >= comm.size()) {
    throw std::invalid_argument("bcast_hierarchy: bad rank/root");
  }
  if (pipeline_chunk == 0) {
    throw std::invalid_argument("bcast_hierarchy: pipeline_chunk must be > 0");
  }
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const int root_node = comm.node_of(root);
  const int root_local = comm.node_local_rank(root);
  const bool leader = (local == 0);
  const int grank = comm.to_global(my);

  {
    // Steps 0 + 1 are the inter-node stage of the rooted collective and
    // attribute as phase 2 (the phase-1 gather has no analog in a bcast):
    // a non-leader root hands the payload to its node leader, then the
    // node leaders broadcast it from the root's node over all rails.
    coll::PhaseSpan p2(comm, my, obs::names::kPhase2);
    if (my == root && root_local != 0) {
      co_await comm.send(my, root - root_local, 9, data);
    }
    if (leader && node == root_node && root_local != 0) {
      co_await comm.recv(my, root, 9, data);
    }
    if (leader && cl.nodes() > 1) {
      auto& lcomm = comm.world().leader_comm();
      if (data.len % static_cast<std::size_t>(cl.nodes()) == 0 &&
          data.len >= static_cast<std::size_t>(cl.nodes())) {
        co_await coll::bcast_scatter_allgather(lcomm, node, root_node, data);
      } else {
        co_await coll::bcast_binomial(lcomm, node, root_node, data);
      }
    }
  }
  if (l == 1) co_return;
  coll::PhaseSpan p3(comm, my, obs::names::kPhase3);

  // Step 2: top-down cascade through the intra-node levels. Stage by
  // stage (outermost first), each group leader republishes the payload
  // through a shared-memory segment homed on its own group; its
  // child-group leaders copy out, then repeat one level down. The last
  // stage's children are single ranks, so it fans out to every member.
  // Pipelined chunks overlap each level's copy-outs with the next chunk's
  // copy-in.
  const std::size_t chunks =
      (data.len + pipeline_chunk - 1) / pipeline_chunk;
  for (int st = static_cast<int>(stages.size()) - 1; st >= 1; --st) {
    const auto& child = stages[static_cast<std::size_t>(st) - 1];
    const auto& parent = stages[static_cast<std::size_t>(st)];
    const int nparents = static_cast<int>(parent.size());
    // One region key per parent group; constructed by every rank so the
    // consumed op sequence numbers stay SPMD-consistent.
    KeyAlloc keys(comm, my, nparents);
    const auto [cg, cf, pg, pf, pend, clo, chi, nsib] =
        stage_groups(child, parent, local, l);
    if (local != cf || nsib <= 1) continue;  // only child leaders exchange

    auto region = comm.share().acquire<shm::ShmRegion>(
        node, keys.key(pg), nsib, [&] {
          return std::make_shared<shm::ShmRegion>(
              cl, node, data.len, comm.sink(), cl.global_rank(node, pf));
        });
    if (local == pf) {  // parent-group leader already has the payload
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t off = c * pipeline_chunk;
        const std::size_t len = std::min(pipeline_chunk, data.len - off);
        co_await region->copy_in_publish(grank, data.sub(off, len), off);
      }
    } else if (my == root) {
      // A non-leader root already has the payload; it only drains the
      // publications so the shared region's lifetime stays SPMD-consistent.
      co_await region->wait_published(chunks);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) {
        co_await region->wait_published(c + 1);
        const auto ch = region->chunk(c);
        co_await region->copy_out(grank, c, data.sub(ch.offset, ch.len));
      }
    }
  }
}

coll::prim::PlanLevels plan_levels(const Hierarchy& h) {
  coll::prim::PlanLevels out;
  out.reserve(static_cast<std::size_t>(h.depth()));
  for (std::size_t l = 0; l < h.levels().size(); ++l) {
    const ResolvedLevel& level = h.levels()[l];
    coll::prim::PlanLevel plevel;
    plevel.groups.reserve(level.groups.size());
    for (const HierGroup& g : level.groups) {
      coll::prim::PlanGroup pg;
      pg.leader = g.leader;
      if (l == 0) {
        for (int r = g.first; r < g.first + g.size; ++r) {
          pg.members.push_back(r);
        }
      } else {
        // Inner levels refine outer ones: the members at this level are
        // the leaders of the contained lower-level groups.
        for (const HierGroup& inner : h.levels()[l - 1].groups) {
          if (inner.first >= g.first && inner.first < g.first + g.size) {
            pg.members.push_back(inner.leader);
          }
        }
      }
      plevel.groups.push_back(std::move(pg));
    }
    out.push_back(std::move(plevel));
  }
  return out;
}

std::optional<HierarchySpec> hierarchy_from_env(const hw::ClusterSpec& spec) {
  const auto v = osu::Env::hierarchy();
  if (!v || *v == "auto") return std::nullopt;
  if (*v == "2" || *v == "3") {
    return HierarchySpec::derive(spec, *v == "2" ? 2 : 3);
  }
  if (v->size() > 1 && (*v)[0] == '@') {
    const std::string path = v->substr(1);
    std::ifstream in(path);
    if (!in) {
      fail(std::string(osu::Env::kHierarchy) + ": cannot read " + path);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return HierarchySpec::from_json(ss.str());
  }
  fail(std::string(osu::Env::kHierarchy) +
       ": expected auto, 2, 3 or @/path/to/spec.json (got '" + *v + "')");
}

}  // namespace hmca::core
