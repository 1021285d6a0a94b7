// Per-simulator event recorder: leveled/sampled admission, a flat
// power-of-two ring of PackedRecords, and pre-aggregated histograms.
//
// Sweep-safety contract: one Recorder belongs to exactly one Simulator
// instance and is only touched from the thread running that simulation —
// there is no shared mutable state, so sweep cells with telemetry enabled
// can run concurrently. Event ordering is the emission order (seq), which
// is deterministic because the simulator itself is.
//
// Cost contract, per instrumentation point:
//  * telemetry off — one null-pointer branch (RecorderHandle).
//  * metrics-on (the default: ring_capacity == 0) — the admission branch
//    rejects every event before its argument expressions are evaluated
//    (see FF_EMIT_* in emit.hpp); only the fixed histogram folds run.
//  * ring capture (opt-in) — admitted events write one fixed-size
//    PackedRecord into a flat pre-allocated ring at (seq & mask): a
//    handful of stores, no per-argument loop, no allocation, no modulo.
//
// Admission is two-stage and deterministic: a per-category level mask
// (one compare), then an optional 1-in-N sampler driven by a counter
// whose phase is seeded per cell — the admitted set is a pure function
// of the (deterministic) emission sequence and the seed, so sweeps stay
// reproducible and serial == parallel bit-identity holds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"

namespace flexfetch::telemetry {

/// Ring capacity handed to cells that opt into full event capture.
inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/// Telemetry knobs carried in SimConfig.
struct TelemetryConfig {
  bool enabled = false;
  /// Ring capacity in events, rounded up to a power of two; the oldest
  /// events are dropped beyond it. 0 — the default — is the metrics-only
  /// production path: no event is admitted (or even constructed), and
  /// counters/histograms are the whole telemetry product. Event capture
  /// is opt-in per cell (set kDefaultRingCapacity for full capture).
  std::size_t ring_capacity = 0;
  /// Per-category admission ceiling for ring capture: an event is
  /// admitted only when its site level is <= the mask entry for its
  /// category (0 silences a category). Defaults to full capture.
  std::array<std::uint8_t, kCategoryCount> category_levels{
      kLevelFull, kLevelFull, kLevelFull, kLevelFull, kLevelFull, kLevelFull,
      kLevelFull, kLevelFull, kLevelFull, kLevelFull, kLevelFull};
  /// Deterministic 1-in-N sampler applied after the level check: of every
  /// `sample_every` level-admitted events, exactly one is recorded. 1 (the
  /// default) disables sampling — required for byte-identical full capture.
  std::uint32_t sample_every = 1;
  /// Seeds the sampler's phase (which of each N events survives), so
  /// distinct sweep cells can sample different offsets while every rerun
  /// of one cell admits the identical set.
  std::uint64_t sample_seed = 0;

  /// Caps every category at `level` (0 silences all ring capture).
  void set_level(std::uint8_t level) { category_levels.fill(level); }
};

class Recorder {
 public:
  explicit Recorder(const TelemetryConfig& config);
  /// Test/tooling convenience: full-level capture, no sampling.
  explicit Recorder(std::size_t capacity = kDefaultRingCapacity);

  /// The single admission gate: level mask, then the 1-in-N sampler.
  /// Callers must gate emission (and argument evaluation) on this — see
  /// the FF_EMIT_* macros in emit.hpp, which guarantee it.
  bool admits(const EventDesc& d) {
    if (static_cast<std::uint8_t>(d.level) >
        level_of_[static_cast<std::size_t>(d.category)]) {
      return false;
    }
    if (sample_every_ <= 1) return true;
    return sample_tick_++ % sample_every_ == sample_phase_;
  }

  template <typename... A>
  void instant(const EventDesc& d, Seconds t, A... args) {
    static_assert(sizeof...(A) <= kMaxArgs);
    PackedRecord r{};
    r.desc = &d;
    r.start_s = t.value();
    pack_args(r, args...);
    push(r);
  }

  template <typename... A>
  void span(const EventDesc& d, Seconds start, Seconds end, A... args) {
    static_assert(sizeof...(A) <= kMaxArgs);
    PackedRecord r{};
    r.desc = &d;
    r.start_s = start.value();
    r.extra = end > start ? (end - start).value() : 0.0;
    pack_args(r, args...);
    push(r);
  }

  /// Span whose name varies per emission (device power-state spans).
  void span_named(const EventDesc& d, const char* name, Seconds start,
                  Seconds end) {
    PackedRecord r{};
    r.desc = &d;
    r.name = name;
    r.start_s = start.value();
    r.extra = end > start ? (end - start).value() : 0.0;
    push(r);
  }

  void counter(const EventDesc& d, Seconds t, double value) {
    PackedRecord r{};
    r.desc = &d;
    r.start_s = t.value();
    r.extra = value;
    push(r);
  }

  /// Pre-aggregated hot-path histogram, one per HistId slot (kLossRate
  /// stays empty: FlexFetchPolicy keeps its own). Folding a sample is an
  /// array index + Histogram::record — no admission, no allocation.
  Histogram& hist(HistId id) {
    return hist_[static_cast<std::size_t>(id)];
  }
  const Histogram& hist(HistId id) const {
    return hist_[static_cast<std::size_t>(id)];
  }
  /// Snapshots every non-empty histogram into the same slot of `m`.
  void export_histograms(MetricsRegistry& m) const;

  std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  std::size_t size() const { return static_cast<std::size_t>(count_ - first_); }
  /// Total events ever admitted, including since-dropped ones.
  std::uint64_t emitted() const { return count_; }
  /// Events overwritten (or, with no ring, discarded) before a drain saw
  /// them. Drained events are delivered, not dropped.
  std::uint64_t dropped() const { return dropped_; }

  /// Retained events, unpacked, in emission (seq) order.
  std::vector<TraceEvent> events() const;
  /// events(), then clears the ring (tallies survive).
  std::vector<TraceEvent> take_events();

 private:
  template <typename... A>
  static void pack_args(PackedRecord& r, A... args) {
    // Compile-time unrolled stores — the "no per-arg loop" contract.
    std::size_t i = 0;
    ((r.payload[i++] = pack_word(args)), ...);
    (void)i;
  }

  void push(const PackedRecord& r) {
    if (capacity_ == 0) {
      // Direct emission against a capture-less recorder still tallies
      // (the admission mask normally rejects long before this).
      ++count_;
      ++first_;
      ++dropped_;
      return;
    }
    if (count_ - first_ == capacity_) {
      // Full: this write lands on the oldest live record's slot
      // (first_ & mask_ == count_ & mask_ exactly when the window spans
      // the whole ring), evicting it unseen.
      ++first_;
      ++dropped_;
    }
    ring_[count_ & mask_] = r;
    ++count_;
  }

  std::size_t capacity_ = 0;  ///< Power of two (or 0: no ring).
  std::uint64_t mask_ = 0;    ///< capacity_ - 1.
  /// Flat pre-allocated ring; slot of record #n is n & mask_.
  std::unique_ptr<PackedRecord[]> ring_;
  std::uint64_t count_ = 0;    ///< Records ever pushed; also the next seq.
  std::uint64_t first_ = 0;    ///< Seq of the oldest retained record.
  std::uint64_t dropped_ = 0;  ///< Records evicted before any drain saw them.

  std::array<std::uint8_t, kCategoryCount> level_of_{};
  std::uint32_t sample_every_ = 1;
  std::uint64_t sample_phase_ = 0;
  std::uint64_t sample_tick_ = 0;

  std::array<Histogram, kHistCount> hist_{};
};

/// Non-owning attachment of an instrumented component to a Recorder that
/// deliberately does not survive copying: device models are copied
/// wholesale for estimation and shadow replay (Section 2.2 of the paper),
/// and those hypothetical worlds must stay silent. The null check is the
/// telemetry-off fast path — one predictable branch per instrumentation
/// point.
class RecorderHandle {
 public:
  RecorderHandle() = default;
  RecorderHandle(const RecorderHandle& /*other*/) noexcept : rec_(nullptr) {}
  RecorderHandle& operator=(const RecorderHandle& other) noexcept {
    if (this != &other) rec_ = nullptr;
    return *this;
  }

  void attach(Recorder* rec) { rec_ = rec; }
  Recorder* get() const { return rec_; }
  explicit operator bool() const { return rec_ != nullptr; }
  Recorder* operator->() const { return rec_; }

 private:
  Recorder* rec_ = nullptr;
};

}  // namespace flexfetch::telemetry
