// The fixed metric schema: every scalar metric and histogram the simulator
// exports, with its name and kind, in name order.
//
// A MetricsRegistry holds one slot per row, indexed by MetricId or HistId,
// so writers and merges never touch a string. Names appear only where text
// is read or written: the exporters, checkpoint lines and the read-only
// lookups by name. Each half of the table is sorted in std::string order,
// so walking a registry's slots in table order visits names in the order
// a sorted name -> value map would; every exporter prints in that order.
//
// A new metric is a new enumerator and a new row, both in their sorted
// place; the static_asserts below reject a row that is misplaced, repeated
// or out of step with its enumerator.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace flexfetch::telemetry {

enum class MetricKind : std::uint8_t {
  kCounter,  ///< Accumulates; merge adds.
  kGauge,    ///< Last value wins; merge takes the other's value.
  kMax,      ///< High-watermark; merge takes the maximum.
};

/// Scalar slots, in table order. Simulator::populate_metrics fills all
/// but the ff.* rows (kBatteryHorizonS only on battery power);
/// FlexFetchPolicy::export_metrics fills the ff.* rows.
enum class MetricId : std::uint8_t {
  kBatteryDrainWEst,
  kBatteryFractionEnd,
  kBatteryHorizonS,
  kCacheEvictions,
  kCacheGhostHits,
  kCacheHitRate,
  kCacheHits,
  kCacheInsertions,
  kCacheLookups,
  kDiskEnergyJ,
  kDiskRequests,
  kDiskSeekTimeS,
  kDiskSequentialHits,
  kDiskSpinDowns,
  kDiskSpinUpStalls,
  kDiskSpinUps,
  kDiskStallTimeS,
  kFfAuditOverrides,
  kFfCacheFilteredRequests,
  kFfEstimatorRequestsReplayed,
  kFfFaultReevaluations,
  kFfFaultSwitches,
  kFfFreeRiderRedirects,
  kFfOverheadEnergyJ,
  kFfShadowRequestsReplayed,
  kFfSpliceReevaluations,
  kFfSpliceSwitches,
  kFfStagesEntered,
  kFfSyscallsTracked,
  kSchedDispatched,
  kSchedMaxDepth,
  kSchedMerged,
  kSchedSubmitted,
  kSchedSweeps,
  kSimDiskBytes,
  kSimDiskRequests,
  kSimIoTimeS,
  kSimMakespanS,
  kSimNetBytes,
  kSimNetRequests,
  kSimSyncBatches,
  kSimSyncBytes,
  kSimSyscalls,
  kTelemetryDropped,
  kTelemetryEventsEmitted,
  kWbPeriodicFlushes,
  kWbSyncFlushes,
  kWnicContendedTransfers,
  kWnicDegradedTransfers,
  kWnicEnergyJ,
  kWnicOutageStalls,
  kWnicOutageWaitS,
  kWnicPsmTransfers,
  kWnicRequests,
  kWnicServerQueueWaitS,
  kWnicServerQueueWaits,
  kWnicSleeps,
  kWnicWakes,
  kCount,
};

/// Histogram slots, in table order. The recorder folds hot-path samples
/// into every slot but kLossRate, which FlexFetchPolicy fills.
enum class HistId : std::uint8_t {
  kLossRate,          ///< Loss rate sampled per FlexFetch decision.
  kDiskBytes,         ///< Per-request disk transfer size (bytes).
  kDiskService,       ///< Per-request disk service time (seconds).
  kMediumShare,       ///< Contended airtime share at bulk-transfer start.
  kSchedDepth,        ///< C-SCAN queue depth at batch dispatch.
  kServerQueueDepth,  ///< Busy server slots seen at transfer arrival (>0).
  kServerQueueDelay,  ///< Server admission wait per queued transfer (s).
  kSyscallLatency,    ///< Per-syscall service delay (seconds).
  kWnicBytes,         ///< Per-request WNIC transfer size (bytes).
  kWnicService,       ///< Per-request WNIC service time (seconds).
  kCount,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(MetricId::kCount);
inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(HistId::kCount);

struct MetricDesc {
  MetricId id;
  std::string_view name;
  MetricKind kind;
};

struct HistDesc {
  HistId id;
  std::string_view name;
};

/// The scalar half of the table.
inline constexpr auto kMetricTable = [] {
  using enum MetricId;
  using enum MetricKind;
  return std::to_array<MetricDesc>({
      {kBatteryDrainWEst, "battery.drain_w_est", kGauge},
      {kBatteryFractionEnd, "battery.fraction_end", kGauge},
      {kBatteryHorizonS, "battery.horizon_s", kGauge},
      {kCacheEvictions, "cache.evictions", kCounter},
      {kCacheGhostHits, "cache.ghost_hits", kCounter},
      {kCacheHitRate, "cache.hit_rate", kGauge},
      {kCacheHits, "cache.hits", kCounter},
      {kCacheInsertions, "cache.insertions", kCounter},
      {kCacheLookups, "cache.lookups", kCounter},
      {kDiskEnergyJ, "disk.energy_j", kGauge},
      {kDiskRequests, "disk.requests", kCounter},
      {kDiskSeekTimeS, "disk.seek_time_s", kGauge},
      {kDiskSequentialHits, "disk.sequential_hits", kCounter},
      {kDiskSpinDowns, "disk.spin_downs", kCounter},
      {kDiskSpinUpStalls, "disk.spin_up_stalls", kCounter},
      {kDiskSpinUps, "disk.spin_ups", kCounter},
      {kDiskStallTimeS, "disk.stall_time_s", kGauge},
      {kFfAuditOverrides, "ff.audit_overrides", kCounter},
      {kFfCacheFilteredRequests, "ff.cache_filtered_requests", kCounter},
      {kFfEstimatorRequestsReplayed, "ff.estimator_requests_replayed",
       kCounter},
      {kFfFaultReevaluations, "ff.fault_reevaluations", kCounter},
      {kFfFaultSwitches, "ff.fault_switches", kCounter},
      {kFfFreeRiderRedirects, "ff.free_rider_redirects", kCounter},
      {kFfOverheadEnergyJ, "ff.overhead_energy_j", kGauge},
      {kFfShadowRequestsReplayed, "ff.shadow_requests_replayed", kCounter},
      {kFfSpliceReevaluations, "ff.splice_reevaluations", kCounter},
      {kFfSpliceSwitches, "ff.splice_switches", kCounter},
      {kFfStagesEntered, "ff.stages_entered", kCounter},
      {kFfSyscallsTracked, "ff.syscalls_tracked", kCounter},
      {kSchedDispatched, "sched.dispatched", kCounter},
      {kSchedMaxDepth, "sched.max_depth", kMax},
      {kSchedMerged, "sched.merged", kCounter},
      {kSchedSubmitted, "sched.submitted", kCounter},
      {kSchedSweeps, "sched.sweeps", kCounter},
      {kSimDiskBytes, "sim.disk_bytes", kCounter},
      {kSimDiskRequests, "sim.disk_requests", kCounter},
      {kSimIoTimeS, "sim.io_time_s", kGauge},
      {kSimMakespanS, "sim.makespan_s", kGauge},
      {kSimNetBytes, "sim.net_bytes", kCounter},
      {kSimNetRequests, "sim.net_requests", kCounter},
      {kSimSyncBatches, "sim.sync_batches", kCounter},
      {kSimSyncBytes, "sim.sync_bytes", kCounter},
      {kSimSyscalls, "sim.syscalls", kCounter},
      {kTelemetryDropped, "telemetry.dropped", kCounter},
      {kTelemetryEventsEmitted, "telemetry.events_emitted", kCounter},
      {kWbPeriodicFlushes, "wb.periodic_flushes", kCounter},
      {kWbSyncFlushes, "wb.sync_flushes", kCounter},
      {kWnicContendedTransfers, "wnic.contended_transfers", kCounter},
      {kWnicDegradedTransfers, "wnic.degraded_transfers", kCounter},
      {kWnicEnergyJ, "wnic.energy_j", kGauge},
      {kWnicOutageStalls, "wnic.outage_stalls", kCounter},
      {kWnicOutageWaitS, "wnic.outage_wait_s", kGauge},
      {kWnicPsmTransfers, "wnic.psm_transfers", kCounter},
      {kWnicRequests, "wnic.requests", kCounter},
      {kWnicServerQueueWaitS, "wnic.server_queue_wait_s", kGauge},
      {kWnicServerQueueWaits, "wnic.server_queue_waits", kCounter},
      {kWnicSleeps, "wnic.sleeps", kCounter},
      {kWnicWakes, "wnic.wakes", kCounter},
  });
}();

/// The histogram half of the table.
inline constexpr auto kHistTable = [] {
  using enum HistId;
  return std::to_array<HistDesc>({
      {kLossRate, "ff.loss_rate"},
      {kDiskBytes, "hist.disk_request_bytes"},
      {kDiskService, "hist.disk_service_s"},
      {kMediumShare, "hist.medium_share"},
      {kSchedDepth, "hist.sched_depth"},
      {kServerQueueDepth, "hist.server_queue_depth"},
      {kServerQueueDelay, "hist.server_queue_wait_s"},
      {kSyscallLatency, "hist.syscall_latency_s"},
      {kWnicBytes, "hist.wnic_request_bytes"},
      {kWnicService, "hist.wnic_service_s"},
  });
}();

namespace detail {

/// Row i describes slot i, and names strictly increase (so are unique).
template <typename Row, std::size_t N>
constexpr bool in_slot_and_name_order(const std::array<Row, N>& table) {
  for (std::size_t i = 0; i < N; ++i) {
    if (static_cast<std::size_t>(table[i].id) != i) return false;
    if (i > 0 && !(table[i - 1].name < table[i].name)) return false;
  }
  return true;
}

/// Binary search of a sorted half of the table.
template <typename Row, std::size_t N>
constexpr auto find_row(const std::array<Row, N>& table,
                        std::string_view name) -> std::optional<decltype(Row::id)> {
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const Row& row, std::string_view n) { return row.name < n; });
  if (it == table.end() || it->name != name) return std::nullopt;
  return it->id;
}

}  // namespace detail

static_assert(kMetricTable.size() == kMetricCount &&
                  detail::in_slot_and_name_order(kMetricTable),
              "kMetricTable: one row per MetricId, sorted by unique name");
static_assert(kHistTable.size() == kHistCount &&
                  detail::in_slot_and_name_order(kHistTable),
              "kHistTable: one row per HistId, sorted by unique name");

constexpr MetricKind kind_of(MetricId id) {
  return kMetricTable[static_cast<std::size_t>(id)].kind;
}

/// The scalar slot named `name`, if the table has one.
constexpr std::optional<MetricId> find_metric(std::string_view name) {
  return detail::find_row(kMetricTable, name);
}
/// The histogram slot named `name`, if the table has one.
constexpr std::optional<HistId> find_hist(std::string_view name) {
  return detail::find_row(kHistTable, name);
}

}  // namespace flexfetch::telemetry
