// Named counters, gauges, and fixed-bucket histograms with deterministic
// ordering and merge.
//
// The registry is the aggregate face of telemetry: at the end of a run the
// simulator snapshots every substrate's statistics into one flat namespace
// ("cache.hits", "disk.spin_ups", "ff.audit_overrides"...) so sweeps can
// carry per-cell metrics in their results and merge them across cells.
// Keys are kept sorted (std::map), so iteration — and therefore every
// exporter — is deterministic.
//
// Histograms are the pre-aggregated face of what full event capture would
// record per event: fixed power-of-two buckets (so merging two histograms
// is a bucket-wise integer add — exact and associative), plus exact count
// and min/max and a running sum. The simulator folds hot-path samples
// (per-syscall latency, per-request device service times...) straight into
// histograms instead of materialising events, which is what makes
// metrics-on telemetry cheap enough to leave on for every cell of a
// fleet-scale sweep.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace flexfetch::telemetry {

enum class MetricKind : std::uint8_t {
  kCounter,  ///< Accumulates; merge adds.
  kGauge,    ///< Last value wins; merge takes the other's value.
  kMax,      ///< High-watermark; merge takes the maximum.
};

struct Metric {
  double value = 0.0;
  MetricKind kind = MetricKind::kCounter;
};

/// Fixed-bucket log2 histogram over non-negative samples. Bucket b counts
/// samples in [2^(b+kMinExp-1), 2^(b+kMinExp)); bucket 0 additionally
/// holds everything below the range (including exact zeros) and the last
/// bucket everything above it. The geometry is a compile-time constant,
/// so any two histograms merge bucket-wise — exactly and associatively.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  /// Exponent of the lower edge of bucket 1: 2^-32 (~2.3e-10) — deep
  /// sub-nanosecond for durations, sub-byte for sizes. The top bucket
  /// edge is 2^31 (~2.1e9): beyond any duration or transfer we simulate.
  static constexpr int kMinExp = -32;

  void record(double v);

  /// Bucket-wise integer add; count/sum/min/max fold alongside.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  bool empty() const { return count_ == 0; }

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  /// Index of the bucket `v` falls into (the geometry contract above).
  static std::size_t bucket_of(double v);
  /// Upper edge of bucket `b` (lower edge of `b + 1`): 2^(b + kMinExp).
  static double bucket_upper_edge(std::size_t b);

  bool operator==(const Histogram& other) const = default;

  /// Reconstructs a histogram from its serialized raw fields — the
  /// checkpoint-restore inverse of reading (count, sum, min, max,
  /// buckets). Round-tripping through from_raw yields a histogram whose
  /// merge behaviour is bit-identical to the original.
  static Histogram from_raw(std::uint64_t count, double sum, double min,
                            double max,
                            const std::array<std::uint64_t, kBuckets>& buckets) {
    Histogram h;
    h.count_ = count;
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
    h.buckets_ = buckets;
    return h;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  /// Adds `delta` to a counter (created at zero on first use).
  void add(std::string_view name, double delta = 1.0);
  /// Sets a gauge.
  void set(std::string_view name, double value);
  /// Raises a high-watermark gauge.
  void set_max(std::string_view name, double value);

  /// Value of a metric, 0.0 if absent.
  double value(std::string_view name) const;
  bool contains(std::string_view name) const;
  bool empty() const { return metrics_.empty() && histograms_.empty(); }
  std::size_t size() const { return metrics_.size(); }

  /// The named histogram, created empty on first use. Named histograms
  /// live beside the scalar namespace; exporters surface them separately
  /// (sweep cell JSON stays scalar-only).
  Histogram& histogram(std::string_view name);
  const Histogram* find_histogram(std::string_view name) const;

  /// Folds `other` in per metric kind: counters add, gauges take the
  /// other's value, high-watermarks take the maximum, histograms merge
  /// bucket-wise. Using one name with two different kinds is a
  /// ConfigError.
  void merge(const MetricsRegistry& other);

  /// Checkpoint-restore: recreates a metric with its exact serialized
  /// kind and value (no arithmetic — a counter restored this way is
  /// bit-identical to the one that was saved, which add() from zero
  /// cannot guarantee for every double). Throws ConfigError if the name
  /// already exists with a different kind.
  void restore(std::string_view name, MetricKind kind, double value);

  /// Sorted name -> metric view (deterministic iteration order).
  const std::map<std::string, Metric, std::less<>>& items() const {
    return metrics_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  Metric& touch(std::string_view name, MetricKind kind);

  std::map<std::string, Metric, std::less<>> metrics_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace flexfetch::telemetry
