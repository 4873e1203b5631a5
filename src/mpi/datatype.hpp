// Datatypes and reduction operators for the mini-MPI layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "hw/buffer.hpp"

namespace hmca::mpi {

enum class Dtype { kByte, kInt32, kInt64, kFloat, kDouble };

constexpr std::size_t dtype_size(Dtype d) {
  switch (d) {
    case Dtype::kByte: return 1;
    case Dtype::kInt32: return 4;
    case Dtype::kInt64: return 8;
    case Dtype::kFloat: return 4;
    case Dtype::kDouble: return 8;
  }
  return 1;
}

enum class ReduceOp { kSum, kProd, kMax, kMin };

/// accum[i] = accum[i] OP operand[i] for `count` elements. Both views real:
/// the arithmetic is performed; either phantom: no-op (timing handled by the
/// caller's reduce flow). Byte type supports no arithmetic reductions.
void apply_reduce(ReduceOp op, Dtype dtype, hw::BufView accum,
                  hw::BufView operand, std::size_t count);

}  // namespace hmca::mpi
