#include "telemetry/recorder.hpp"

#include <bit>

namespace flexfetch::telemetry {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n <= 1) return n;
  return std::bit_ceil(n);
}

TelemetryConfig full_capture_config(std::size_t capacity) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = capacity;
  return cfg;
}

}  // namespace

Recorder::Recorder(const TelemetryConfig& config)
    : capacity_(round_up_pow2(config.ring_capacity)),
      mask_(capacity_ > 0 ? capacity_ - 1 : 0),
      sample_every_(config.sample_every > 0 ? config.sample_every : 1),
      sample_phase_(sample_every_ > 1 ? config.sample_seed % sample_every_
                                      : 0) {
  if (capacity_ > 0) {
    // for_overwrite: the ring starts uninitialised — only slots in
    // [first_, count_) are ever read, and each has been written first.
    ring_ = std::make_unique_for_overwrite<PackedRecord[]>(capacity_);
    level_of_ = config.category_levels;
  }
  // capacity 0 leaves every category level at 0: no event is admitted, so
  // the FF_EMIT_* gates skip record construction entirely (metrics-only).
}

Recorder::Recorder(std::size_t capacity)
    : Recorder(full_capture_config(capacity)) {}

void Recorder::export_histograms(MetricsRegistry& m) const {
  for (std::size_t i = 0; i < kHistCount; ++i) {
    if (hist_[i].empty()) continue;
    m.histogram(static_cast<HistId>(i)).merge(hist_[i]);
  }
}

std::vector<TraceEvent> Recorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  // The ring is append-ordered: record #s lives at slot s & mask_.
  for (std::uint64_t seq = first_; seq < count_; ++seq) {
    out.push_back(unpack(ring_[seq & mask_], seq));
  }
  return out;
}

std::vector<TraceEvent> Recorder::take_events() {
  std::vector<TraceEvent> out = events();
  // The drained events were delivered, not dropped: advance the retained
  // window past them and leave the tallies alone.
  first_ = count_;
  return out;
}

}  // namespace flexfetch::telemetry
