// TAU-like event tracing: per-rank spans along the virtual timeline, plus
// message records. Used to regenerate the paper's Figure 2 (communication
// timeline of a flat Ring Allgather on 2 nodes x 2 PPN) and to assert
// overlap properties in tests.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hmca::trace {

enum class Kind {
  kIsend,     ///< nonblocking send posted / in flight
  kIrecv,     ///< nonblocking recv posted / in flight
  kWait,      ///< blocked in wait/waitall
  kCopyIn,    ///< CPU copy into shared memory
  kCopyOut,   ///< CPU copy out of shared memory
  kCmaCopy,   ///< kernel-assisted single copy
  kNicXfer,   ///< data on the wire / adapter DMA
  kCompute,   ///< application compute
  kPhase,     ///< algorithm phase annotation
  kTask,      ///< dataflow graph task (chunk-tagged; wraps a primitive)
};

const char* kind_name(Kind k);
char kind_glyph(Kind k);

struct Span {
  int rank;
  Kind kind;
  sim::Time t0;
  sim::Time t1;
  int peer;           ///< peer rank, -1 if n/a
  std::size_t bytes;  ///< payload bytes, 0 if n/a
  std::string label;
};

/// Collects spans; rendering is offline. Recording costs one vector
/// push_back per span; the tracer can be absent (callers hold a pointer).
class Tracer {
 public:
  void record(Span s) { spans_.push_back(std::move(s)); }

  /// Open/close of a span whose end is not known yet (obs::CollectSink
  /// holds the index across the activity). `open_span` returns the span's
  /// index; `close_span` stamps its end time.
  std::size_t open_span(Span s) {
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
  }
  void close_span(std::size_t idx, sim::Time t1) { spans_.at(idx).t1 = t1; }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Steal the span store (leaves the tracer empty). Lets consumers that
  /// own the tracer keep a multi-million-span stream without copying it.
  std::vector<Span> take_spans() noexcept { return std::move(spans_); }
  void clear() { spans_.clear(); }

  /// Total time covered by spans of `kind` on `rank` (merging overlaps).
  sim::Duration busy_time(int rank, Kind kind) const;

  /// Duration during which a span of kind `a` on `rank_a` overlaps any span
  /// of kind `b` on `rank_b` — used to assert phase-2/3 overlap.
  sim::Duration overlap_time(int rank_a, Kind a, int rank_b, Kind b) const;

  /// ASCII timeline: one line per rank, glyphs per kind, time axis scaled
  /// to `width` columns (Figure 2 rendering).
  void render_ascii(std::ostream& os, int width = 100) const;

  /// Machine-readable dump: rank,kind,t0_us,t1_us,peer,bytes,label.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace hmca::trace
