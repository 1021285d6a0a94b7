// Results of one policy's simulation run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"
#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"

namespace flexfetch::sim {

/// One serviced device request (optional per-request log for diagnostics).
struct RequestLogEntry {
  Seconds arrival = Seconds{0.0};
  Seconds completion = Seconds{0.0};
  device::DeviceKind device = device::DeviceKind::kDisk;
  Bytes size = Bytes{0};
  Joules energy = Joules{0.0};
  trace::ProcessGroup pgid = 0;
  bool is_writeback = false;
};

struct SimResult {
  std::string policy;

  /// Completion time of the last application syscall.
  Seconds makespan = Seconds{0.0};
  /// Sum over syscalls of their service delays (time the applications
  /// spent blocked on I/O) — the paper's "I/O execution time".
  Seconds io_time = Seconds{0.0};

  device::EnergyMeter disk_meter;
  device::EnergyMeter wnic_meter;
  device::DiskCounters disk_counters;
  device::WnicCounters wnic_counters;
  os::CacheStats cache_stats;
  os::SchedulerStats scheduler_stats;

  std::uint64_t syscalls = 0;
  std::uint64_t disk_requests = 0;
  std::uint64_t net_requests = 0;
  Bytes disk_bytes = Bytes{0};
  Bytes net_bytes = Bytes{0};

  /// Replica synchronization traffic (only with SimConfig::sync set).
  std::uint64_t sync_batches = 0;
  Bytes sync_bytes = Bytes{0};

  std::vector<RequestLogEntry> request_log;  ///< Only if logging enabled.

  /// Telemetry (only populated when SimConfig::telemetry.enabled). The
  /// metrics registry is always filled in that case; trace events are kept
  /// only when the ring capacity is non-zero. The registry is a fixed
  /// block of about 6 KB that only Simulator::finish writes, so it comes
  /// last, after the fields the event loop updates.
  std::vector<telemetry::TraceEvent> trace_events;
  std::uint64_t trace_events_dropped = 0;
  telemetry::MetricsRegistry metrics;

  Joules disk_energy() const { return disk_meter.total(); }
  Joules wnic_energy() const { return wnic_meter.total(); }
  Joules total_energy() const { return disk_energy() + wnic_energy(); }

  /// Multi-line human-readable summary.
  std::string report() const;
};

}  // namespace flexfetch::sim
