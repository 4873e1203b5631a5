#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "trace/trace.hpp"

namespace hmca::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

namespace {

std::string number(double v) { return json_number(v); }

void labels_json(std::ostream& os, const Labels& labels) {
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(labels[i].first) << "\":\""
       << json_escape(labels[i].second) << '"';
  }
  os << '}';
}

std::string labels_csv(const Labels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ';';
    out += labels[i].first + "=" + labels[i].second;
  }
  return out;
}

}  // namespace

Metrics::Key Metrics::make_key(std::string_view name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

void Metrics::count(std::string_view name, double delta, Labels labels) {
  counters_[make_key(name, std::move(labels))] += delta;
}

void Metrics::gauge(std::string_view name, double value, Labels labels) {
  gauges_[make_key(name, std::move(labels))] = value;
}

int Metrics::Histogram::bucket_of(double value) {
  if (!(value > 0.0)) return 0;
  // First bucket whose upper edge 2^(i - bias) is >= value.
  const int i = static_cast<int>(std::ceil(std::log2(value))) + kBucketBias;
  return std::clamp(i, 0, kBuckets - 1);
}

double Metrics::Histogram::bucket_edge(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i - kBucketBias);
}

double Metrics::Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The q-th observation in rank space [1, count]; linear interpolation
  // inside the bucket that holds it, clamped to the exact extremes.
  const double target = std::max(1.0, q * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += buckets[i];
    if (static_cast<double>(cum) < target) continue;
    const double lo = i == 0 ? 0.0 : bucket_edge(i - 1);
    const double hi = i == kBuckets - 1 ? max : bucket_edge(i);
    const double frac = (target - prev) / static_cast<double>(buckets[i]);
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;
}

void Metrics::observe(std::string_view name, double value, Labels labels) {
  auto& h = hists_[make_key(name, std::move(labels))];
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[Histogram::bucket_of(value)];
}

double Metrics::counter_value(std::string_view name,
                              const Labels& labels) const {
  const auto it = counters_.find(make_key(name, labels));
  return it == counters_.end() ? 0.0 : it->second;
}

const Metrics::Histogram* Metrics::histogram(std::string_view name,
                                             const Labels& labels) const {
  const auto it = hists_.find(make_key(name, labels));
  return it == hists_.end() ? nullptr : &it->second;
}

double Metrics::counter_total(std::string_view name) const {
  double total = 0;
  for (const auto& [key, value] : counters_) {
    if (key.name == name) total += value;
  }
  return total;
}

void Metrics::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const auto series = [&](const char* kind, const auto& map, auto emit_value) {
    os << pad << "  \"" << kind << "\": [";
    bool first = true;
    for (const auto& [key, value] : map) {
      os << (first ? "\n" : ",\n") << pad << "    {\"name\": \""
         << json_escape(key.name) << "\", \"labels\": ";
      labels_json(os, key.labels);
      os << ", ";
      emit_value(value);
      os << '}';
      first = false;
    }
    if (!first) os << '\n' << pad << "  ";
    os << ']';
  };
  os << pad << "{\n";
  series("counters", counters_,
         [&](double v) { os << "\"value\": " << number(v); });
  os << ",\n";
  series("gauges", gauges_,
         [&](double v) { os << "\"value\": " << number(v); });
  os << ",\n";
  series("histograms", hists_, [&](const Histogram& h) {
    os << "\"count\": " << h.count << ", \"sum\": " << number(h.sum)
       << ", \"min\": " << number(h.min) << ", \"max\": " << number(h.max)
       << ", \"p50\": " << number(h.p50()) << ", \"p95\": " << number(h.p95())
       << ", \"p99\": " << number(h.p99());
  });
  os << '\n' << pad << '}';
}

void Metrics::write_csv(std::ostream& os) const {
  os << "kind,name,labels,value,count,min,max,p50,p95,p99\n";
  for (const auto& [key, value] : counters_) {
    os << "counter," << key.name << ',' << labels_csv(key.labels) << ','
       << number(value) << ",,,,,,\n";
  }
  for (const auto& [key, value] : gauges_) {
    os << "gauge," << key.name << ',' << labels_csv(key.labels) << ','
       << number(value) << ",,,,,,\n";
  }
  for (const auto& [key, h] : hists_) {
    os << "histogram," << key.name << ',' << labels_csv(key.labels) << ','
       << number(h.sum) << ',' << h.count << ',' << number(h.min) << ','
       << number(h.max) << ',' << number(h.p50()) << ',' << number(h.p95())
       << ',' << number(h.p99()) << '\n';
  }
}

// ---- CollectSink (declared in sink.hpp) ----

namespace {
class NullSink final : public Sink {};
}  // namespace

Sink& null_sink() noexcept {
  static NullSink sink;
  return sink;
}

std::size_t CollectSink::span_open(trace::Span s) {
  return tracer_->open_span(std::move(s));
}

void CollectSink::span_close(std::size_t id, sim::Time t1) {
  tracer_->close_span(id, t1);
}

void CollectSink::span_record(trace::Span s) { tracer_->record(std::move(s)); }

void CollectSink::metric_count(std::string_view name, double delta,
                               Labels labels) {
  metrics_->count(name, delta, std::move(labels));
}

void CollectSink::metric_gauge(std::string_view name, double value,
                               Labels labels) {
  metrics_->gauge(name, value, std::move(labels));
}

void CollectSink::metric_observe(std::string_view name, double value,
                                 Labels labels) {
  metrics_->observe(name, value, std::move(labels));
}

void CollectSink::timeline_sample(ResourceSample s) {
  samples_->push_back(std::move(s));
}

}  // namespace hmca::obs
