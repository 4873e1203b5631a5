#include "coll/prim/program.hpp"

#include <algorithm>
#include <sstream>

namespace hmca::coll::prim {

const char* op_name(Op op) {
  switch (op) {
    case Op::kMulticast: return "multicast";
    case Op::kReduce: return "reduce";
    case Op::kShard: return "shard";
    case Op::kUnshard: return "unshard";
    case Op::kFence: return "fence";
  }
  return "?";
}

const char* space_name(Space s) {
  switch (s) {
    case Space::kSend: return "send";
    case Space::kRecv: return "recv";
    case Space::kScratch: return "scratch";
  }
  return "?";
}

std::size_t Program::space_bytes(Space s) const {
  switch (s) {
    case Space::kSend: return send_bytes;
    case Space::kRecv: return recv_bytes;
    case Space::kScratch: return scratch_bytes;
  }
  return 0;
}

Prim& Program::multicast(int root, std::vector<int> peers, Space src_space,
                         Range src, Space dst_space, std::size_t dst_off) {
  Prim p;
  p.op = Op::kMulticast;
  p.root = root;
  p.peers = std::move(peers);
  p.src_space = src_space;
  p.src = src;
  p.dst_space = dst_space;
  p.dst_off = dst_off;
  prims.push_back(std::move(p));
  return prims.back();
}

Prim& Program::reduce(int root, std::vector<int> peers, Space space,
                      Range range, mpi::Dtype dtype, mpi::ReduceOp rop) {
  Prim p;
  p.op = Op::kReduce;
  p.root = root;
  p.peers = std::move(peers);
  p.src_space = space;
  p.dst_space = space;
  p.src = range;
  p.dst_off = range.off;
  p.dtype = dtype;
  p.rop = rop;
  prims.push_back(std::move(p));
  return prims.back();
}

Prim& Program::shard(Space space, std::vector<Shard> shards) {
  Prim p;
  p.op = Op::kShard;
  p.src_space = space;
  p.dst_space = space;
  p.shards = std::move(shards);
  prims.push_back(std::move(p));
  return prims.back();
}

Prim& Program::unshard(Space space, std::vector<int> peers) {
  Prim p;
  p.op = Op::kUnshard;
  p.src_space = space;
  p.dst_space = space;
  p.peers = std::move(peers);
  prims.push_back(std::move(p));
  return prims.back();
}

Prim& Program::fence() {
  Prim p;
  p.op = Op::kFence;
  prims.push_back(std::move(p));
  return prims.back();
}

namespace {

[[noreturn]] void fail(std::size_t index, const Prim& p,
                       const std::string& what) {
  std::ostringstream os;
  os << "prim #" << index << " (" << op_name(p.op);
  if (!p.label.empty()) os << " '" << p.label << "'";
  os << "): " << what;
  throw PlanError(os.str());
}

std::string range_str(const Range& r) {
  std::ostringstream os;
  os << "[" << r.off << ", " << r.off + r.len << ")";
  return os.str();
}

void check_rank(std::size_t index, const Prim& p, int rank, const char* role,
                int nranks) {
  if (rank < 0 || rank >= nranks) {
    fail(index, p,
         std::string(role) + " rank " + std::to_string(rank) +
             " outside world [0, " + std::to_string(nranks) + ")");
  }
}

void check_range(std::size_t index, const Prim& p, Space space,
                 const Range& r, std::size_t bytes, const char* role) {
  if (r.len == 0) return;  // zero-byte transfers are legal no-ops
  if (r.off + r.len < r.off || r.off + r.len > bytes) {
    fail(index, p,
         std::string(role) + " range " + range_str(r) + " exceeds " +
             space_name(space) + " space of " + std::to_string(bytes) +
             " bytes");
  }
}

void check_peers(std::size_t index, const Prim& p, int nranks) {
  if (p.peers.empty()) fail(index, p, "empty peer list");
  std::vector<int> seen = p.peers;
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    check_rank(index, p, seen[i], "peer", nranks);
    if (i > 0 && seen[i] == seen[i - 1]) {
      fail(index, p, "duplicate peer " + std::to_string(seen[i]));
    }
  }
}

}  // namespace

void Program::validate() const {
  if (nranks <= 0) {
    throw PlanError("program declares " + std::to_string(nranks) +
                    " ranks; need at least 1");
  }
  // Most recent shard declaration per space; consumed by unshard.
  const std::vector<Shard>* sharded[3] = {nullptr, nullptr, nullptr};
  for (std::size_t i = 0; i < prims.size(); ++i) {
    const Prim& p = prims[i];
    switch (p.op) {
      case Op::kMulticast: {
        check_rank(i, p, p.root, "root", nranks);
        check_peers(i, p, nranks);
        check_range(i, p, p.src_space, p.src, space_bytes(p.src_space),
                    "source");
        check_range(i, p, p.dst_space, {p.dst_off, p.src.len},
                    space_bytes(p.dst_space), "destination");
        if (p.dst_space == Space::kSend && p.src.len > 0) {
          fail(i, p, "destination writes the read-only send space");
        }
        break;
      }
      case Op::kReduce: {
        check_rank(i, p, p.root, "root", nranks);
        check_peers(i, p, nranks);
        for (const int peer : p.peers) {
          if (peer == p.root) {
            fail(i, p,
                 "root " + std::to_string(p.root) +
                     " listed as its own contributor (the root's data is "
                     "the accumulator)");
          }
        }
        check_range(i, p, p.src_space, p.src, space_bytes(p.src_space),
                    "reduce");
        if (p.src_space == Space::kSend && p.src.len > 0) {
          fail(i, p, "reduce accumulates into the read-only send space");
        }
        const std::size_t elem = mpi::dtype_size(p.dtype);
        if (p.src.len % elem != 0) {
          fail(i, p,
               "reduce range " + range_str(p.src) + " is not a multiple of "
                   "the " + std::to_string(elem) + "-byte element size");
        }
        break;
      }
      case Op::kShard: {
        if (p.shards.empty()) fail(i, p, "empty shard list");
        for (const Shard& s : p.shards) {
          check_rank(i, p, s.owner, "owner", nranks);
          check_range(i, p, p.src_space, s.range, space_bytes(p.src_space),
                      "shard");
        }
        for (std::size_t a = 0; a < p.shards.size(); ++a) {
          for (std::size_t b = a + 1; b < p.shards.size(); ++b) {
            const Range& ra = p.shards[a].range;
            const Range& rb = p.shards[b].range;
            if (ra.len == 0 || rb.len == 0) continue;
            if (ra.off < rb.off + rb.len && rb.off < ra.off + ra.len) {
              fail(i, p,
                   "overlapping shard ranges: owner " +
                       std::to_string(p.shards[a].owner) + " " +
                       range_str(ra) + " vs owner " +
                       std::to_string(p.shards[b].owner) + " " +
                       range_str(rb));
            }
          }
        }
        sharded[static_cast<int>(p.src_space)] = &p.shards;
        break;
      }
      case Op::kUnshard: {
        check_peers(i, p, nranks);
        if (p.src_space == Space::kSend) {
          fail(i, p, "unshard writes the read-only send space");
        }
        if (sharded[static_cast<int>(p.src_space)] == nullptr) {
          fail(i, p,
               std::string("unshard of ") + space_name(p.src_space) +
                   " space without a preceding shard declaration");
        }
        break;
      }
      case Op::kFence:
        break;
    }
  }
}

}  // namespace hmca::coll::prim
