// Metrics registry: counters, gauges and histograms keyed by (name, label
// set), advancing in virtual time with the simulation that feeds them.
//
// Storage is ordered (std::map over a normalized key) so every export —
// JSON, CSV, test assertions — is deterministic across runs, matching the
// simulator's reproducibility guarantees.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"

namespace hmca::obs {

class Metrics {
 public:
  /// Metric identity: name plus normalized (key-sorted) labels.
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  /// Fixed log2-bucketed histogram. Observation v lands in the bucket
  /// whose upper edge 2^(i - kBucketBias) is the first one >= v; v <= 0
  /// lands in bucket 0, v past the last edge in the overflow bucket
  /// (kBuckets - 1). Quantiles are estimated deterministically from the
  /// bucket counts (see quantile()), so exports never depend on
  /// observation order. min/max are exact: the first observe() seeds them
  /// both (a default 0 never wins against a first observation > 0).
  struct Histogram {
    /// Edge layout: 2^-kBucketBias .. 2^(kBuckets - 2 - kBucketBias),
    /// i.e. 1/16 up to 2^42 — covers sub-microsecond durations through
    /// multi-terabyte byte counts with one fixed grammar.
    static constexpr int kBuckets = 48;
    static constexpr int kBucketBias = 4;

    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::uint64_t buckets[kBuckets] = {};

    /// Bucket index an observation of `value` falls into.
    static int bucket_of(double value);
    /// Upper edge of bucket `i` (infinity for the overflow bucket).
    static double bucket_edge(int i);

    /// Deterministic quantile estimate (q in [0, 1]): locate the bucket
    /// holding the q-th observation and interpolate linearly inside it,
    /// clamped to the exact [min, max]. Returns 0 when empty.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
  };

  void count(std::string_view name, double delta, Labels labels = {});
  void gauge(std::string_view name, double value, Labels labels = {});
  void observe(std::string_view name, double value, Labels labels = {});

  /// Lookups (tests, report derivation). Counters default to 0 for absent
  /// keys; histogram lookup returns nullptr.
  double counter_value(std::string_view name, const Labels& labels = {}) const;
  const Histogram* histogram(std::string_view name,
                             const Labels& labels = {}) const;

  /// Sum of every counter series sharing `name` (all label sets).
  double counter_total(std::string_view name) const;

  const std::map<Key, double>& counters() const noexcept { return counters_; }
  const std::map<Key, double>& gauges() const noexcept { return gauges_; }
  const std::map<Key, Histogram>& histograms() const noexcept {
    return hists_;
  }

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  /// {"counters":[{"name":..,"labels":{..},"value":..},..],
  ///  "gauges":[..], "histograms":[..]} — keys emitted in sorted order.
  /// `indent` spaces prefix every line (for embedding in a larger object).
  void write_json(std::ostream& os, int indent = 0) const;

  /// kind,name,labels,value[,count/min/max] rows.
  void write_csv(std::ostream& os) const;

 private:
  static Key make_key(std::string_view name, Labels labels);

  std::map<Key, double> counters_;
  std::map<Key, double> gauges_;
  std::map<Key, Histogram> hists_;
};

/// JSON string escaping shared by the metrics and chrome-trace exporters.
std::string json_escape(std::string_view s);

/// Deterministic JSON number formatting shared by the obs exporters:
/// integral values print as integers, everything else as %.17g
/// (round-trippable, locale-independent).
std::string json_number(double v);

}  // namespace hmca::obs
