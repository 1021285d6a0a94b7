#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace flexfetch::telemetry {

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // Zeros, negatives, and NaN underflow.
  // frexp leaves the exponent of an infinity unspecified.
  if (std::isinf(v)) return kBuckets - 1;
  int exp = 0;
  // frexp: v = m * 2^exp with m in [0.5, 1) — so v < 2^exp <= 2v, and
  // bucket b = exp - kMinExp covers [2^(b+kMinExp-1), 2^(b+kMinExp)).
  (void)std::frexp(v, &exp);
  const int b = exp - kMinExp;
  if (b < 0) return 0;
  if (b >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(b);
}

double Histogram::bucket_upper_edge(std::size_t b) {
  return std::ldexp(1.0, static_cast<int>(b) + kMinExp);
}

void Histogram::record(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[bucket_of(v)];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double MetricsRegistry::value(std::string_view name) const {
  const auto id = find_metric(name);
  return id ? value(*id) : 0.0;
}

bool MetricsRegistry::contains(std::string_view name) const {
  const auto id = find_metric(name);
  return id && contains(*id);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto id = find_hist(name);
  return id ? find_histogram(*id) : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  if (other.empty()) return;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (!other.present_.test(i)) continue;
    double& mine = values_[i];
    const double theirs = other.values_[i];
    switch (kMetricTable[i].kind) {
      case MetricKind::kCounter: mine += theirs; break;
      case MetricKind::kGauge: mine = theirs; break;
      case MetricKind::kMax: mine = std::max(mine, theirs); break;
    }
  }
  for (std::size_t i = 0; i < kHistCount; ++i) {
    if (other.hist_present_.test(i)) hists_[i].merge(other.hists_[i]);
  }
  present_ |= other.present_;
  hist_present_ |= other.hist_present_;
}

}  // namespace flexfetch::telemetry
