#include "coll/bcast.hpp"

#include <stdexcept>

#include "coll/allgather.hpp"
#include "coll/phase_span.hpp"

namespace hmca::coll {

namespace {

void check_rank_root(const mpi::Comm& comm, int my, int root) {
  if (my < 0 || my >= comm.size() || root < 0 || root >= comm.size()) {
    throw std::invalid_argument("rooted collective: bad rank/root");
  }
}

// Rotate so the root is virtual rank 0.
int to_virtual(int rank, int root, int n) { return (rank - root + n) % n; }
int to_real(int vrank, int root, int n) { return (vrank + root) % n; }

}  // namespace

sim::Task<void> bcast_binomial(mpi::Comm& comm, int my, int root,
                               hw::BufView data) {
  check_rank_root(comm, my, root);
  const int n = comm.size();
  if (n == 1) co_return;
  const int v = to_virtual(my, root, n);
  PhaseSpan phase(comm, my);

  // Receive once from the parent (v with its lowest set bit cleared), then
  // forward down to children v + m for every m below that bit.
  int first_child_mask;
  if (v != 0) {
    const int low_bit = v & ~(v - 1);
    const int vparent = v & (v - 1);
    co_await comm.recv(my, to_real(vparent, root, n), 0, data);
    first_child_mask = low_bit >> 1;
  } else {
    int mask = 1;
    while (mask < n) mask <<= 1;
    first_child_mask = mask >> 1;
  }
  for (int m = first_child_mask; m >= 1; m >>= 1) {
    const int vchild = v + m;
    if (vchild < n) {
      co_await comm.send(my, to_real(vchild, root, n), 0, data);
    }
  }
}

sim::Task<void> bcast_scatter_allgather(mpi::Comm& comm, int my, int root,
                                        hw::BufView data) {
  check_rank_root(comm, my, root);
  const int n = comm.size();
  if (n == 1) co_return;
  if (data.len % static_cast<std::size_t>(n) != 0) {
    throw std::invalid_argument(
        "bcast_scatter_allgather: size must divide by comm size");
  }
  const std::size_t piece = data.len / static_cast<std::size_t>(n);
  const int v = to_virtual(my, root, n);
  PhaseSpan phase(comm, my);

  // Scatter phase: binomial tree over *ranges* of pieces. Virtual rank v
  // owns piece range [v, v + extent) which halves every level.
  int extent = 1;
  while (extent < n) extent <<= 1;  // power-of-two ceiling
  // Receive my range from the parent.
  if (v != 0) {
    const int vparent = v & (v - 1);
    const int my_extent = v & ~(v - 1);
    const std::size_t lo = static_cast<std::size_t>(v) * piece;
    const std::size_t hi =
        std::min(static_cast<std::size_t>(v + my_extent), static_cast<std::size_t>(n)) * piece;
    if (hi > lo) {
      co_await comm.recv(my, to_real(vparent, root, n), 1, data.sub(lo, hi - lo));
    } else {
      // Empty range (non-power-of-two tail): still synchronize.
      auto token = hw::Buffer::make(1, comm.cluster().spec().carry_data);
      co_await comm.recv(my, to_real(vparent, root, n), 1, token.view());
    }
  }
  const int start = (v == 0) ? extent : (v & ~(v - 1));
  for (int m = start >> 1; m >= 1; m >>= 1) {
    const int vchild = v + m;
    if (vchild >= n) continue;
    const std::size_t lo = static_cast<std::size_t>(vchild) * piece;
    const std::size_t hi =
        std::min(static_cast<std::size_t>(vchild + m), static_cast<std::size_t>(n)) * piece;
    if (hi > lo) {
      co_await comm.send(my, to_real(vchild, root, n), 1, data.sub(lo, hi - lo));
    } else {
      auto token = hw::Buffer::make(1, comm.cluster().spec().carry_data);
      co_await comm.send(my, to_real(vchild, root, n), 1, token.view());
    }
  }

  // Allgather phase: ring over the scattered pieces, in virtual order.
  // Piece indices are virtual; rank v holds piece v. Reuse the ring
  // pattern directly on the rotated index space.
  const int vright = to_real((v + 1) % n, root, n);
  const int vleft = to_real((v - 1 + n) % n, root, n);
  int cur = v;
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (cur - 1 + n) % n;
    co_await comm.sendrecv(
        my, vright, 2 + step, data.sub(static_cast<std::size_t>(cur) * piece, piece),
        vleft, 2 + step,
        data.sub(static_cast<std::size_t>(incoming) * piece, piece));
    cur = incoming;
  }
}

}  // namespace hmca::coll
