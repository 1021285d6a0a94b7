#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "telemetry/emit.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

using telemetry::Category;
using telemetry::EventDesc;
using telemetry::Histogram;
using telemetry::Level;
using telemetry::MetricsRegistry;
using telemetry::Phase;
using telemetry::Recorder;
using telemetry::RecorderHandle;
using telemetry::TelemetryConfig;
using telemetry::TraceEvent;
namespace track = telemetry::track;

// --- Recorder ring buffer ---------------------------------------------------

constexpr EventDesc kTick{.name = "tick", .n_args = 1, .keys = {"i"}};

TEST(Recorder, RingOverflowKeepsNewestInOrder) {
  Recorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.instant(kTick, static_cast<Seconds>(i), static_cast<double>(i));
  }
  EXPECT_EQ(rec.emitted(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.size(), 4u);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // newest 4 survive, oldest first
    EXPECT_DOUBLE_EQ(events[i].args[0].num, static_cast<double>(6 + i));
  }
}

TEST(Recorder, ZeroCapacityIsMetricsOnly) {
  Recorder rec(0);
  for (int i = 0; i < 5; ++i) {
    rec.instant(kTick, Seconds{0.0}, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.emitted(), 5u);   // direct emission still tallies
  EXPECT_EQ(rec.dropped(), 5u);   // ...and counts every drop
  EXPECT_TRUE(rec.events().empty());
  EXPECT_TRUE(rec.take_events().empty());
}

TEST(Recorder, TakeEventsDrainsButKeepsTallies) {
  Recorder rec(8);
  rec.instant(kTick, Seconds{1.0}, 0.0);
  rec.instant(kTick, Seconds{2.0}, 1.0);
  const auto taken = rec.take_events();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.emitted(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);  // drained events were delivered, not lost
}

TEST(Recorder, PackedRecordRoundTrip) {
  static constexpr EventDesc kIo{.name = "disk.read",
                                 .category = Category::kDisk,
                                 .phase = Phase::kSpan,
                                 .level = Level::kDetail,
                                 .n_args = 3,
                                 .str_mask = 0b010,
                                 .track = track::kDiskIo,
                                 .keys = {"lba", "op", "bytes"}};
  Recorder rec(8);
  rec.span(kIo, Seconds{1.5}, Seconds{2.25}, 42.0, "read", 4096.0);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& ev = events[0];
  EXPECT_STREQ(ev.name, "disk.read");
  EXPECT_EQ(ev.category, Category::kDisk);
  EXPECT_EQ(ev.phase, Phase::kSpan);
  EXPECT_EQ(ev.track, track::kDiskIo);
  EXPECT_EQ(ev.seq, 0u);
  EXPECT_DOUBLE_EQ(ev.start.value(), 1.5);
  EXPECT_DOUBLE_EQ(ev.duration.value(), 0.75);
  ASSERT_EQ(ev.n_args, 3u);
  EXPECT_STREQ(ev.args[0].key, "lba");
  EXPECT_EQ(ev.args[0].str, nullptr);
  EXPECT_DOUBLE_EQ(ev.args[0].num, 42.0);
  EXPECT_STREQ(ev.args[1].key, "op");
  EXPECT_STREQ(ev.args[1].str, "read");
  EXPECT_STREQ(ev.args[2].key, "bytes");
  EXPECT_DOUBLE_EQ(ev.args[2].num, 4096.0);
}

TEST(Recorder, HandleCopyDetaches) {
  Recorder rec(8);
  RecorderHandle h;
  h.attach(&rec);
  ASSERT_TRUE(h);

  // Copies model estimator/shadow device clones: they must stay silent.
  RecorderHandle copy(h);
  EXPECT_FALSE(copy);
  RecorderHandle assigned;
  assigned.attach(&rec);
  assigned = h;
  EXPECT_FALSE(assigned);
  EXPECT_TRUE(h);  // the original stays attached
}

// --- Admission: levels and sampling -----------------------------------------

constexpr EventDesc kKeyEvent{.name = "key", .level = Level::kKey};
constexpr EventDesc kDetailEvent{.name = "detail", .level = Level::kDetail};
constexpr EventDesc kVerboseEvent{.name = "verbose", .level = Level::kVerbose};

TEST(Admission, LevelMaskGatesPerCategory) {
  TelemetryConfig config;
  config.enabled = true;
  config.ring_capacity = 16;
  config.set_level(static_cast<std::uint8_t>(Level::kDetail));
  Recorder rec(config);

  EXPECT_TRUE(rec.admits(kKeyEvent));
  EXPECT_TRUE(rec.admits(kDetailEvent));
  EXPECT_FALSE(rec.admits(kVerboseEvent));
}

TEST(Admission, ZeroRingCapacityRejectsEverything) {
  TelemetryConfig config;
  config.enabled = true;  // metrics-only: ring_capacity stays 0
  Recorder rec(config);
  EXPECT_FALSE(rec.admits(kKeyEvent));
  EXPECT_FALSE(rec.admits(kDetailEvent));
  EXPECT_FALSE(rec.admits(kVerboseEvent));
  EXPECT_EQ(rec.emitted(), 0u);  // rejected events are never constructed
  EXPECT_EQ(rec.dropped(), 0u);
}

/// The sampler is a pure function of (emission index, seed): the same
/// configuration admits the identical index set on every run, and the
/// phase spreads across seeds.
TEST(Admission, SamplingIsDeterministicAndSeeded) {
  constexpr int kEvents = 100;
  constexpr std::uint32_t kEvery = 4;
  auto admitted_set = [&](std::uint64_t seed) {
    TelemetryConfig config;
    config.enabled = true;
    config.ring_capacity = 256;
    config.sample_every = kEvery;
    config.sample_seed = seed;
    Recorder rec(config);
    std::vector<int> admitted;
    for (int i = 0; i < kEvents; ++i) {
      if (rec.admits(kKeyEvent)) admitted.push_back(i);
    }
    return admitted;
  };

  const auto a = admitted_set(7);
  const auto b = admitted_set(7);
  EXPECT_EQ(a, b);  // rerun with the same seed: identical admitted set
  ASSERT_EQ(a.size(), kEvents / kEvery);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // seed 7, N 4: phase 3, so indices 3, 7, 11...
    EXPECT_EQ(a[i], static_cast<int>(3 + kEvery * i));
  }
  const auto c = admitted_set(9);  // phase 1
  EXPECT_NE(a, c);
  EXPECT_EQ(c.size(), kEvents / kEvery);
}

/// The cost contract of FF_EMIT_*: a rejected event's argument
/// expressions are never evaluated (and neither is the record packed).
TEST(Admission, RejectedEmitNeverEvaluatesArgs) {
  TelemetryConfig config;
  config.enabled = true;
  config.ring_capacity = 16;
  config.set_level(static_cast<std::uint8_t>(Level::kKey));
  Recorder rec(config);

  int evaluations = 0;
  auto costly = [&]() -> double {
    ++evaluations;
    return 1.0;
  };

  FF_EMIT_INSTANT(&rec, kVerboseEvent, Seconds{0.0}, costly());
  EXPECT_EQ(evaluations, 0);  // level-rejected: arg untouched
  EXPECT_EQ(rec.emitted(), 0u);

  Recorder* null_rec = nullptr;
  FF_EMIT_INSTANT(null_rec, kKeyEvent, Seconds{0.0}, costly());
  EXPECT_EQ(evaluations, 0);  // telemetry off: arg untouched

  FF_EMIT_INSTANT(&rec, kKeyEvent, Seconds{0.0}, costly());
  EXPECT_EQ(evaluations, 1);  // admitted: evaluated exactly once
  EXPECT_EQ(rec.emitted(), 1u);
}

// --- Metrics registry -------------------------------------------------------

TEST(Metrics, CounterGaugeAndMaxSemantics) {
  using enum telemetry::MetricId;
  MetricsRegistry m;
  m.add(kSimSyscalls);
  m.add(kSimSyscalls, 2.5);
  EXPECT_DOUBLE_EQ(m.value("sim.syscalls"), 3.5);

  m.set(kSimMakespanS, 7.0);
  m.set(kSimMakespanS, 4.0);
  EXPECT_DOUBLE_EQ(m.value("sim.makespan_s"), 4.0);

  m.set_max(kSchedMaxDepth, 3.0);
  m.set_max(kSchedMaxDepth, 9.0);
  m.set_max(kSchedMaxDepth, 5.0);
  EXPECT_DOUBLE_EQ(m.value(kSchedMaxDepth), 9.0);

  // A counter added with 0 is present: presence is a bit, not a value.
  m.add(kCacheHits, 0.0);
  EXPECT_TRUE(m.contains("cache.hits"));

  EXPECT_DOUBLE_EQ(m.value("cache.lookups"), 0.0);
  EXPECT_FALSE(m.contains("cache.lookups"));
  EXPECT_FALSE(m.contains("absent"));
  EXPECT_DOUBLE_EQ(m.value("absent"), 0.0);
  EXPECT_EQ(m.size(), 4u);
}

TEST(Metrics, MergeFoldsPerKind) {
  using enum telemetry::MetricId;
  MetricsRegistry a;
  a.add(kSimSyscalls, 10.0);
  a.set(kSimMakespanS, 1.0);
  a.set_max(kSchedMaxDepth, 5.0);
  a.add(kCacheHits, 1.0);

  MetricsRegistry b;
  b.add(kSimSyscalls, 4.0);
  b.set(kSimMakespanS, 2.0);
  b.set_max(kSchedMaxDepth, 3.0);
  b.add(kWbSyncFlushes, 0.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value(kSimSyscalls), 14.0);   // counters add
  EXPECT_DOUBLE_EQ(a.value(kSimMakespanS), 2.0);   // gauges take the other's value
  EXPECT_DOUBLE_EQ(a.value(kSchedMaxDepth), 5.0);  // high-watermarks take the max
  EXPECT_DOUBLE_EQ(a.value(kCacheHits), 1.0);
  EXPECT_TRUE(a.contains(kWbSyncFlushes));  // present in b, so present here
  EXPECT_EQ(a.size(), 5u);
}

TEST(Metrics, ItemsIterateInSortedNameOrder) {
  // Slots written out of order come back in table order, which is name
  // order, with each slot's table kind.
  using enum telemetry::MetricId;
  MetricsRegistry m;
  m.add(kWnicWakes);
  m.set(kBatteryDrainWEst, 1.0);
  m.set_max(kSchedMaxDepth, 2.0);
  std::vector<std::string> names;
  std::vector<telemetry::MetricKind> kinds;
  for (const auto& [name, metric] : m.items()) {
    names.emplace_back(name);
    kinds.push_back(metric.kind);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"battery.drain_w_est",
                                             "sched.max_depth", "wnic.wakes"}));
  EXPECT_EQ(kinds, (std::vector<telemetry::MetricKind>{
                       telemetry::MetricKind::kGauge,
                       telemetry::MetricKind::kMax,
                       telemetry::MetricKind::kCounter}));

  // Every row, in both halves: iteration order is std::string order.
  MetricsRegistry all;
  for (const auto& row : telemetry::kMetricTable) all.restore(row.id, 1.0);
  for (const auto& row : telemetry::kHistTable) all.histogram(row.id);
  std::vector<std::string> scalars, hists;
  for (const auto& [name, metric] : all.items()) scalars.emplace_back(name);
  for (const auto& [name, h] : all.histograms()) hists.emplace_back(name);
  EXPECT_EQ(scalars.size(), telemetry::kMetricCount);
  EXPECT_EQ(hists.size(), telemetry::kHistCount);
  EXPECT_TRUE(std::is_sorted(scalars.begin(), scalars.end()));
  EXPECT_TRUE(std::is_sorted(hists.begin(), hists.end()));
  EXPECT_EQ(telemetry::find_metric("sim.syscalls"), kSimSyscalls);
  EXPECT_EQ(telemetry::find_hist("ff.loss_rate"), telemetry::HistId::kLossRate);
  EXPECT_FALSE(telemetry::find_metric("hist.sched_depth").has_value());
  EXPECT_FALSE(telemetry::find_hist("sim.syscalls").has_value());
}

// --- Histograms -------------------------------------------------------------

TEST(Histograms, RecordCoversBucketGeometry) {
  Histogram h;
  h.record(0.0);      // below range -> bucket 0
  h.record(1.0);
  h.record(1.0e12);   // above range -> clamped into the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0e12);
  std::uint64_t total = 0;
  for (const auto b : h.buckets()) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(Histogram::bucket_of(1.0e12), Histogram::kBuckets - 1);
  // +inf is above the range too; NaN and non-positive values underflow.
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0u);
}

/// bucket_of reads the exponent field; frexp's exponent is the reference.
std::size_t frexp_bucket(double v) {
  if (!(v > 0.0)) return 0;
  if (std::isinf(v)) return Histogram::kBuckets - 1;
  int exp = 0;
  (void)std::frexp(v, &exp);
  const int b = exp - Histogram::kMinExp;
  if (b < 0) return 0;
  if (b >= static_cast<int>(Histogram::kBuckets)) return Histogram::kBuckets - 1;
  return static_cast<std::size_t>(b);
}

TEST(Histograms, BucketOfMatchesFrexpReference) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,         -0.0,          limits::denorm_min(),
                                limits::max(), limits::infinity(),
                                -limits::infinity(), limits::quiet_NaN()};
  for (int e = -40; e <= 40; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, limits::infinity()));
  }
  for (const double v : values) {
    EXPECT_EQ(Histogram::bucket_of(v), frexp_bucket(v)) << v;
  }
}

/// Merge is a bucket-wise integer add, so it must be exact and
/// associative: (a + b) + c == a + (b + c), including count/sum/min/max.
/// Samples are chosen dyadic so even the floating-point sums are exact.
TEST(Histograms, MergeIsExactAndAssociative) {
  auto fill = [](Histogram& h, double scale, int n) {
    for (int i = 1; i <= n; ++i) h.record(scale * static_cast<double>(i));
  };
  Histogram a, b, c;
  fill(a, 0.25, 17);
  fill(b, 2.0, 23);
  fill(c, 1024.0, 11);

  Histogram left_first = a;   // (a + b) + c
  left_first.merge(b);
  left_first.merge(c);

  Histogram right_first = b;  // a + (b + c)
  right_first.merge(c);
  Histogram a2 = a;
  a2.merge(right_first);

  EXPECT_EQ(left_first, a2);

  // And both equal recording every sample into one histogram.
  Histogram sequential;
  fill(sequential, 0.25, 17);
  fill(sequential, 2.0, 23);
  fill(sequential, 1024.0, 11);
  EXPECT_EQ(left_first, sequential);
}

TEST(Histograms, RegistryMergeFoldsHistograms) {
  using enum telemetry::HistId;
  MetricsRegistry a, b;
  a.histogram(kSyscallLatency).record(1.0);
  b.histogram(kSyscallLatency).record(2.0);
  b.histogram(kDiskService).record(4.0);
  b.histogram(kWnicService);  // Present though empty, so merged in.
  a.merge(b);
  ASSERT_NE(a.find_histogram("hist.syscall_latency_s"), nullptr);
  EXPECT_EQ(a.find_histogram("hist.syscall_latency_s")->count(), 2u);
  ASSERT_NE(a.find_histogram("hist.disk_service_s"), nullptr);
  EXPECT_EQ(a.find_histogram("hist.disk_service_s")->count(), 1u);
  ASSERT_NE(a.find_histogram(kWnicService), nullptr);
  EXPECT_TRUE(a.find_histogram(kWnicService)->empty());
  EXPECT_EQ(a.find_histogram(kWnicBytes), nullptr);
  EXPECT_EQ(a.find_histogram("nosuch"), nullptr);
  EXPECT_EQ(a.histograms().size(), 3u);
}

// --- Exporters --------------------------------------------------------------

/// A tiny scripted run must export byte-for-byte stable Chrome-trace JSON:
/// the golden below is the determinism contract for the exporter.
TEST(Exporters, GoldenChromeTraceJson) {
  static constexpr EventDesc kFreeRide{.name = "free_ride",
                                       .category = Category::kPolicy,
                                       .level = Level::kKey,
                                       .track = track::kPolicy};
  static constexpr EventDesc kActive{.name = "Active",
                                     .category = Category::kDisk,
                                     .phase = Phase::kSpan,
                                     .n_args = 2,
                                     .str_mask = 0b10,
                                     .track = track::kDiskPower,
                                     .keys = {"lba", "op"}};
  static constexpr EventDesc kDepth{.name = "sched.depth",
                                    .category = Category::kScheduler,
                                    .phase = Phase::kCounter,
                                    .level = Level::kVerbose,
                                    .track = track::kScheduler};
  Recorder rec(8);
  rec.instant(kFreeRide, Seconds{1.5});
  rec.span(kActive, Seconds{0.0}, Seconds{2.5}, 42.0, "read");
  rec.counter(kDepth, Seconds{3.0}, 7.0);

  MetricsRegistry metrics;
  metrics.add(telemetry::MetricId::kDiskRequests, 1.0);

  std::ostringstream os;
  telemetry::write_chrome_trace(os, rec.events(), rec.dropped(), &metrics);

  const std::string expected = R"({
  "displayTimeUnit": "ms",
  "otherData": {
    "dropped_events": 0,
    "disk.requests": 1
  },
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "flexfetch-sim"}},
    {"name": "telemetry.dropped", "ph": "M", "pid": 1, "tid": 0, "args": {"dropped": 0}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "sim.syscalls"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 0, "args": {"sort_index": 0}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "disk.power"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 1, "args": {"sort_index": 1}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "disk.io"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 2, "args": {"sort_index": 2}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "wnic.power"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 3, "args": {"sort_index": 3}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "wnic.io"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 4, "args": {"sort_index": 4}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 5, "args": {"name": "writeback"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 5, "args": {"sort_index": 5}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 6, "args": {"name": "scheduler"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 6, "args": {"sort_index": 6}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "policy"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 7, "args": {"sort_index": 7}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 8, "args": {"name": "faults"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 8, "args": {"sort_index": 8}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 9, "args": {"name": "medium"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 9, "args": {"sort_index": 9}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 10, "args": {"name": "server"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 10, "args": {"sort_index": 10}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 11, "args": {"name": "battery"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 11, "args": {"sort_index": 11}},
    {"name": "free_ride", "cat": "policy", "pid": 1, "tid": 7, "ts": 1500000, "ph": "i", "s": "t", "args": {}},
    {"name": "Active", "cat": "disk", "pid": 1, "tid": 1, "ts": 0, "ph": "X", "dur": 2500000, "args": {"lba": 42, "op": "read"}},
    {"name": "sched.depth", "cat": "scheduler", "pid": 1, "tid": 6, "ts": 3000000, "ph": "C", "args": {"value": 7}}
  ]
}
)";
  EXPECT_EQ(os.str(), expected);
}

/// Scans JSON for structural balance, skipping string contents.
void expect_balanced_json(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Exporters, RealSimulationTraceIsWellFormed) {
  const auto trace = workloads::grep_trace();
  sim::SimConfig config;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, trace, policy);
  ASSERT_FALSE(r.trace_events.empty());

  std::ostringstream os;
  telemetry::write_chrome_trace(os, r.trace_events, r.trace_events_dropped,
                                &r.metrics);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"disk.energy_j\""), std::string::npos);
}

// --- Whole-simulator integration --------------------------------------------

TEST(Telemetry, DiskPowerSpansTileTheTimeline) {
  // Thunderbird's 22 s think times straddle the 20 s spin-down timeout, so
  // the disk cycles idle -> spin-down -> standby -> spin-up repeatedly.
  const auto trace = workloads::thunderbird_trace();
  sim::SimConfig config;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, trace, policy);
  EXPECT_EQ(r.trace_events_dropped, 0u);

  std::vector<const TraceEvent*> spans;
  for (const auto& ev : r.trace_events) {
    if (ev.track == track::kDiskPower && ev.phase == Phase::kSpan) {
      spans.push_back(&ev);
    }
  }
  ASSERT_GT(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans.front()->start.value(), 0.0);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    // The power-state story is gap-free: each state span begins where the
    // previous one ended.
    EXPECT_DOUBLE_EQ(spans[i]->start.value(), spans[i - 1]->end().value());
  }
  EXPECT_GT(spans.back()->end(), Seconds{0.0});
  EXPECT_LE(spans.back()->end(), r.makespan * (1.0 + 1e-12) + Seconds{1e-9});
}

TEST(Telemetry, MetricsMirrorSimulatorStatistics) {
  const auto trace = workloads::grep_trace();
  sim::SimConfig config;
  config.telemetry.enabled = true;  // metrics-only: the default ring is 0
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, trace, policy);

  EXPECT_TRUE(r.trace_events.empty());
  EXPECT_DOUBLE_EQ(r.metrics.value("sim.syscalls"),
                   static_cast<double>(r.syscalls));
  EXPECT_DOUBLE_EQ(r.metrics.value("cache.hits"),
                   static_cast<double>(r.cache_stats.hits));
  EXPECT_DOUBLE_EQ(r.metrics.value("disk.energy_j"), r.disk_energy().value());
  EXPECT_DOUBLE_EQ(r.metrics.value("sim.makespan_s"), r.makespan.value());
  // Metrics-only means no event is admitted — or even constructed.
  EXPECT_DOUBLE_EQ(r.metrics.value("telemetry.events_emitted"), 0.0);
  EXPECT_DOUBLE_EQ(r.metrics.value("telemetry.dropped"), 0.0);
  // The pre-aggregated histograms carry what events used to.
  const Histogram* lat = r.metrics.find_histogram("hist.syscall_latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
  const Histogram* svc = r.metrics.find_histogram("hist.disk_service_s");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->count(), static_cast<std::uint64_t>(r.disk_requests));
}

TEST(Telemetry, RingCaptureEventsMatchHistogramCounts) {
  const auto trace = workloads::grep_trace();
  sim::SimConfig config;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, trace, policy);
  ASSERT_EQ(r.trace_events_dropped, 0u);

  // Full capture and pre-aggregation describe the same run: every disk
  // service span in the ring has a sample in the service-time histogram.
  std::uint64_t disk_spans = 0;
  for (const auto& ev : r.trace_events) {
    if (ev.track == track::kDiskIo && ev.phase == Phase::kSpan) ++disk_spans;
  }
  const Histogram* svc = r.metrics.find_histogram("hist.disk_service_s");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->count(), disk_spans);
}

TEST(Telemetry, FlexFetchPolicyEmitsStageAndDecisionEvents) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid({&scenario}, {"flexfetch"},
                              {device::WnicParams::cisco_aironet350()});
  ASSERT_EQ(cells.size(), 1u);
  cells[0].config.telemetry.enabled = true;
  cells[0].config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;

  const auto results = sim::run_sweep(cells, {.jobs = 1});
  const sim::SimResult& r = results[0];
  EXPECT_GE(r.metrics.value("ff.stages_entered"), 1.0);

  bool saw_stage_enter = false;
  bool saw_decision = false;
  for (const auto& ev : r.trace_events) {
    if (std::string_view(ev.name) == "stage.enter") saw_stage_enter = true;
    if (std::string_view(ev.name) == "decision.stage") saw_decision = true;
  }
  EXPECT_TRUE(saw_stage_enter);
  EXPECT_TRUE(saw_decision);
}

/// Key-level capture is a strict, deterministic subset of full capture:
/// the same run at Level::kKey admits exactly the key-level events, in the
/// same order, without perturbing the simulation.
TEST(Telemetry, LeveledCaptureIsASubsetOfFullCapture) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto run_at = [&](std::uint8_t level) {
    auto cells = sim::make_grid({&scenario}, {"flexfetch"},
                                {device::WnicParams::cisco_aironet350()});
    cells[0].config.telemetry.enabled = true;
    cells[0].config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
    cells[0].config.telemetry.set_level(level);
    return sim::run_sweep(cells, {.jobs = 1})[0];
  };
  const auto full = run_at(telemetry::kLevelFull);
  const auto key = run_at(static_cast<std::uint8_t>(Level::kKey));

  ASSERT_FALSE(key.trace_events.empty());
  EXPECT_LT(key.trace_events.size(), full.trace_events.size());
  // Filtering the full capture down to key-level sites must reproduce the
  // key run: same names, same order.
  std::vector<std::string> full_key_names;
  for (const auto& ev : full.trace_events) {
    if (ev.category == Category::kPolicy || ev.category == Category::kFault) {
      full_key_names.push_back(ev.name);
    }
  }
  std::vector<std::string> key_names;
  key_names.reserve(key.trace_events.size());
  for (const auto& ev : key.trace_events) key_names.push_back(ev.name);
  EXPECT_EQ(key_names, full_key_names);
  // And the two runs simulated the identical world.
  EXPECT_EQ(full.makespan, key.makespan);
  EXPECT_EQ(full.total_energy(), key.total_energy());
}

/// Sampled capture stays bit-identical between serial and parallel sweeps:
/// admission depends only on the per-cell emission sequence and seed.
TEST(Telemetry, SampledCaptureIsIdenticalSerialVsParallel) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid({&scenario}, {"flexfetch", "disk-only"},
                              {device::WnicParams::cisco_aironet350()});
  for (auto& cell : cells) {
    cell.config.telemetry.enabled = true;
    cell.config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
    cell.config.telemetry.sample_every = 3;
    cell.config.telemetry.sample_seed = 11;
  }

  const auto serial = sim::run_sweep(cells, {.jobs = 1});
  const auto parallel = sim::run_sweep(cells, {.jobs = 2});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(cells[i].policy);
    const auto& s = serial[i].trace_events;
    const auto& p = parallel[i].trace_events;
    ASSERT_EQ(s.size(), p.size());
    ASSERT_FALSE(s.empty());
    for (std::size_t e = 0; e < s.size(); ++e) {
      EXPECT_EQ(s[e].seq, p[e].seq);
      EXPECT_STREQ(s[e].name, p[e].name);
      EXPECT_EQ(s[e].start, p[e].start);
    }
  }
}

/// The acceptance contract of the whole subsystem: switching telemetry on
/// (metrics-only, as sweeps do) must not perturb a single simulated number.
TEST(Telemetry, SweepResultsBitIdenticalTelemetryOnVsOff) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells_off = sim::make_grid({&scenario}, {"flexfetch", "disk-only"},
                                  {device::WnicParams::cisco_aironet350()});
  auto cells_on = cells_off;
  for (auto& cell : cells_on) {
    cell.config.telemetry.enabled = true;  // metrics-only by default
  }

  const auto off = sim::run_sweep(cells_off, {.jobs = 1});
  const auto on = sim::run_sweep(cells_on, {.jobs = 1});
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    SCOPED_TRACE(cells_off[i].policy);
    EXPECT_EQ(off[i].makespan, on[i].makespan);
    EXPECT_EQ(off[i].io_time, on[i].io_time);
    EXPECT_EQ(off[i].total_energy(), on[i].total_energy());
    EXPECT_EQ(off[i].disk_energy(), on[i].disk_energy());
    EXPECT_EQ(off[i].wnic_energy(), on[i].wnic_energy());
    EXPECT_EQ(off[i].syscalls, on[i].syscalls);
    EXPECT_EQ(off[i].disk_requests, on[i].disk_requests);
    EXPECT_EQ(off[i].net_requests, on[i].net_requests);
    EXPECT_EQ(off[i].disk_bytes, on[i].disk_bytes);
    EXPECT_EQ(off[i].net_bytes, on[i].net_bytes);
    EXPECT_TRUE(off[i].metrics.empty());   // off: no metrics collected
    EXPECT_FALSE(on[i].metrics.empty());   // on: per-cell metrics present
  }
}

}  // namespace
}  // namespace flexfetch
