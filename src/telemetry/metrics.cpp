#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace flexfetch::telemetry {

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // Zeros, negatives, and NaN underflow.
  // A normal v is 1.f * 2^(e - 1023) for its biased exponent field e, so
  // v < 2^(e - 1022) <= 2v, and bucket b = e - 1022 - kMinExp covers
  // [2^(b+kMinExp-1), 2^(b+kMinExp)) — what frexp's exponent gives, without
  // the libm call. Subnormals (e = 0) clamp to bucket 0, +inf (e = 2047) to
  // the top one.
  const auto e = static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff);
  return static_cast<std::size_t>(
      std::clamp(e - 1022 - kMinExp, 0, static_cast<int>(kBuckets) - 1));
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
