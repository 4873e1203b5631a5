// Virtual-time definitions for the discrete-event engine.
//
// All simulation time is kept in double-precision seconds. The engine is
// single-threaded and deterministic: equal timestamps are ordered by an
// insertion sequence number, so runs are exactly reproducible.
#pragma once

#include <cstdint>

namespace hmca::sim {

/// Virtual time in seconds since the start of the simulation.
using Time = double;

/// Duration in seconds.
using Duration = double;

inline constexpr Time kTimeZero = 0.0;

/// Convert seconds to microseconds (for reporting).
constexpr double to_us(Duration d) { return d * 1e6; }

/// Convert microseconds to seconds.
constexpr Duration from_us(double us) { return us * 1e-6; }

}  // namespace hmca::sim
