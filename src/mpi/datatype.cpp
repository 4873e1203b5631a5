#include "mpi/datatype.hpp"

#include <algorithm>

namespace hmca::mpi {

namespace {

template <class T>
void reduce_typed(ReduceOp op, T* accum, const T* operand, std::size_t n) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i) accum[i] += operand[i];
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < n; ++i) accum[i] *= operand[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) accum[i] = std::max(accum[i], operand[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) accum[i] = std::min(accum[i], operand[i]);
      break;
  }
}

}  // namespace

void apply_reduce(ReduceOp op, Dtype dtype, hw::BufView accum,
                  hw::BufView operand, std::size_t count) {
  const std::size_t bytes = count * dtype_size(dtype);
  if (accum.len < bytes || operand.len < bytes) {
    throw std::invalid_argument("apply_reduce: views too small");
  }
  if (!accum.real() || !operand.real()) return;  // phantom: timing only
  switch (dtype) {
    case Dtype::kByte:
      throw std::invalid_argument("apply_reduce: no arithmetic on raw bytes");
    case Dtype::kInt32:
      reduce_typed(op, reinterpret_cast<std::int32_t*>(accum.ptr),
                   reinterpret_cast<const std::int32_t*>(operand.ptr), count);
      break;
    case Dtype::kInt64:
      reduce_typed(op, reinterpret_cast<std::int64_t*>(accum.ptr),
                   reinterpret_cast<const std::int64_t*>(operand.ptr), count);
      break;
    case Dtype::kFloat:
      reduce_typed(op, reinterpret_cast<float*>(accum.ptr),
                   reinterpret_cast<const float*>(operand.ptr), count);
      break;
    case Dtype::kDouble:
      reduce_typed(op, reinterpret_cast<double*>(accum.ptr),
                   reinterpret_cast<const double*>(operand.ptr), count);
      break;
  }
}

}  // namespace hmca::mpi
