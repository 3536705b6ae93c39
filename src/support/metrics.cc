#include "support/metrics.h"

#include <bit>

#include "support/check.h"

namespace cr::support {

size_t Histogram::bucket_of(uint64_t v) {
  return v == 0 ? 0 : static_cast<size_t>(std::bit_width(v));
}

uint64_t Histogram::bucket_lo(size_t b) {
  CR_CHECK(b < kBuckets);
  return b == 0 ? 0 : uint64_t{1} << (b - 1);
}

uint64_t Histogram::bucket_hi(size_t b) {
  CR_CHECK(b < kBuckets);
  if (b == 0) return 0;
  if (b == 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

void Histogram::record(uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  CR_CHECK_MSG(!gauges_.count(name) && !histograms_.count(name),
               "metric name registered as a different kind");
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  CR_CHECK_MSG(!counters_.count(name) && !histograms_.count(name),
               "metric name registered as a different kind");
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  CR_CHECK_MSG(!counters_.count(name) && !gauges_.count(name),
               "metric name registered as a different kind");
  return histograms_[name];
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c.value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".sum"] = static_cast<double>(h.sum());
    out[name + ".min"] = static_cast<double>(h.min());
    out[name + ".max"] = static_cast<double>(h.max());
  }
  return out;
}

}  // namespace cr::support
