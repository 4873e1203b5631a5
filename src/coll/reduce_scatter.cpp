#include "coll/reduce_scatter.hpp"

#include <stdexcept>

#include "coll/prim/builders.hpp"
#include "coll/prim/planner.hpp"

namespace hmca::coll {

namespace {

void check_args(const mpi::Comm& comm, int my, const hw::BufView& data,
                std::size_t count, mpi::Dtype dtype) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("reduce_scatter: bad rank");
  }
  if (data.len != count * mpi::dtype_size(dtype)) {
    throw std::invalid_argument("reduce_scatter: data size != count * elem");
  }
}

}  // namespace

sim::Task<void> reduce_scatter_ring_any(mpi::Comm& comm, int my,
                                        hw::BufView data, std::size_t count,
                                        mpi::Dtype dtype, mpi::ReduceOp op) {
  check_args(comm, my, data, count, dtype);
  co_await prim::Planner::run(
      comm, my, hw::BufView{}, data, [&comm, count, dtype, op] {
        return prim::reduce_scatter_ring(comm.size(), count, dtype, op);
      });
}

sim::Task<void> reduce_scatter_halving(mpi::Comm& comm, int my,
                                       hw::BufView data, std::size_t count,
                                       mpi::Dtype dtype, mpi::ReduceOp op) {
  check_args(comm, my, data, count, dtype);
  co_await prim::Planner::run(
      comm, my, hw::BufView{}, data, [&comm, count, dtype, op] {
        return prim::reduce_scatter_rh(comm.size(), count, dtype, op);
      });
}

}  // namespace hmca::coll
