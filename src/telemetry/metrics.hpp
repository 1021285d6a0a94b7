// Counters, gauges, and fixed-bucket histograms in fixed slots, with
// deterministic ordering and merge.
//
// The registry is the aggregate face of telemetry: at the end of a run the
// simulator snapshots every substrate's statistics into one flat namespace
// ("cache.hits", "disk.spin_ups", "ff.audit_overrides"...) so sweeps can
// carry per-cell metrics in their results and merge them across cells.
// The namespace is fixed at compile time (metric_table.hpp): a registry is
// one array of scalar slots and one of histogram slots, each with explicit
// presence bits, written by MetricId or HistId. A merge is an array fold,
// and nothing allocates. Iteration visits the present slots in table
// order, which is name order, so every exporter is deterministic.
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

#include <algorithm>
#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/error.hpp"
#include "telemetry/metric_table.hpp"

namespace flexfetch::telemetry {

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

/// The present slots of one half of a registry, in table order, as
/// (name, value) pairs. `Read` maps a present slot index to its pair.
template <std::size_t N, typename Read>
class PresentSlots {
 public:
  PresentSlots(const std::bitset<N>& present, Read read)
      : present_(&present), read_(read) {}

  class iterator {
   public:
    auto operator*() const { return read_(i_); }
    iterator& operator++() {
      i_ = next(*present_, i_ + 1);
      return *this;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    friend PresentSlots;
    iterator(const std::bitset<N>* present, Read read, std::size_t i)
        : present_(present), read_(read), i_(next(*present, i)) {}
    const std::bitset<N>* present_;
    Read read_;
    std::size_t i_;
  };

  iterator begin() const { return {present_, read_, 0}; }
  iterator end() const { return {present_, read_, N}; }
  std::size_t size() const { return present_->count(); }
  bool empty() const { return present_->none(); }

 private:
  static std::size_t next(const std::bitset<N>& present, std::size_t i) {
    while (i < N && !present[i]) ++i;
    return i;
  }

  const std::bitset<N>* present_;
  Read read_;
};

struct MetricEntry {
  std::string_view name;
  Metric metric;
};

struct HistogramEntry {
  std::string_view name;
  const Histogram& histogram;
};

class MetricsRegistry {
 public:
  /// Adds `delta` to a counter (a fresh slot holds 0.0).
  void add(MetricId id, double delta = 1.0) {
    slot(id, MetricKind::kCounter) += delta;
  }
  /// Sets a gauge.
  void set(MetricId id, double value) {
    slot(id, MetricKind::kGauge) = value;
  }
  /// Raises a high-watermark (a fresh slot holds 0.0).
  void set_max(MetricId id, double value) {
    double& v = slot(id, MetricKind::kMax);
    v = std::max(v, value);
  }
  /// Checkpoint-restore: marks the slot present with exactly `value` (no
  /// arithmetic — a counter restored this way is bit-identical to the one
  /// that was saved, which add() from zero cannot guarantee for every
  /// double).
  void restore(MetricId id, double value) {
    const auto i = static_cast<std::size_t>(id);
    present_.set(i);
    values_[i] = value;
  }

  /// The histogram slot, marked present (and empty) on first use.
  Histogram& histogram(HistId id) {
    const auto i = static_cast<std::size_t>(id);
    hist_present_.set(i);
    return hists_[i];
  }

  bool contains(MetricId id) const {
    return present_.test(static_cast<std::size_t>(id));
  }
  /// Value of a slot, 0.0 if absent.
  double value(MetricId id) const {
    return values_[static_cast<std::size_t>(id)];
  }
  const Histogram* find_histogram(HistId id) const {
    const auto i = static_cast<std::size_t>(id);
    return hist_present_.test(i) ? &hists_[i] : nullptr;
  }

  /// Lookups by name (a binary search of the table): a name outside the
  /// table is absent.
  double value(std::string_view name) const;
  bool contains(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  bool empty() const { return present_.none() && hist_present_.none(); }
  /// Present scalar slots.
  std::size_t size() const { return present_.count(); }

  /// Folds `other` in slot by slot: counters add, gauges take the other's
  /// value, high-watermarks take the maximum, histograms merge
  /// bucket-wise. A slot present in `other` becomes present here.
  void merge(const MetricsRegistry& other);

  /// Present scalar slots in table (name) order, as {name, metric}.
  auto items() const {
    return PresentSlots(present_, [this](std::size_t i) {
      return MetricEntry{kMetricTable[i].name,
                         Metric{values_[i], kMetricTable[i].kind}};
    });
  }
  /// Present histogram slots in table (name) order, as {name, histogram}.
  auto histograms() const {
    return PresentSlots(hist_present_, [this](std::size_t i) {
      return HistogramEntry{kHistTable[i].name, hists_[i]};
    });
  }

  bool operator==(const MetricsRegistry& other) const = default;

 private:
  double& slot(MetricId id, MetricKind kind) {
    FF_ASSERT(kind_of(id) == kind);
    const auto i = static_cast<std::size_t>(id);
    present_.set(i);
    return values_[i];
  }

  // An absent slot holds its initial 0.0 or empty histogram, so writes and
  // merges need no first-use branch and == can compare whole arrays.
  std::array<double, kMetricCount> values_{};
  std::array<Histogram, kHistCount> hists_{};
  std::bitset<kMetricCount> present_;
  std::bitset<kHistCount> hist_present_;
};

}  // namespace flexfetch::telemetry
