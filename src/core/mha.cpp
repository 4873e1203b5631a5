#include "core/mha.hpp"

#include "core/selector.hpp"

namespace hmca::core {

sim::Task<void> mha_allgather(mpi::Comm& comm, int my, hw::BufView send,
                              hw::BufView recv, std::size_t msg,
                              bool in_place) {
  auto sel = default_selector().select_allgather(comm, my, msg);
  co_await sel.fn(comm, my, send, recv, msg, in_place);
}

sim::Task<void> mha_allreduce(mpi::Comm& comm, int my, hw::BufView data,
                              std::size_t count, mpi::Dtype dtype,
                              mpi::ReduceOp op) {
  auto sel = default_selector().select_allreduce(comm, my, count, dtype);
  co_await sel.fn(comm, my, data, count, dtype, op);
}

sim::Task<void> mha_alltoall(mpi::Comm& comm, int my, hw::BufView send,
                             hw::BufView recv, std::size_t msg) {
  auto sel = default_selector().select_alltoall(comm, my, msg);
  co_await sel.fn(comm, my, send, recv, msg);
}

sim::Task<void> mha_reduce_scatter(mpi::Comm& comm, int my, hw::BufView data,
                                   std::size_t count, mpi::Dtype dtype,
                                   mpi::ReduceOp op) {
  auto sel = default_selector().select_reduce_scatter(comm, my, count, dtype);
  co_await sel.fn(comm, my, data, count, dtype, op);
}

}  // namespace hmca::core
