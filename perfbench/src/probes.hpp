// Layer replay probes of the traced run.
//
// The simulator's inner layers are not visible from outside it, so the
// traced run times them by replaying a task's own inputs through each
// layer's public API, outside any Simulator:
//
//   os      syscalls -> Vfs::plan_read / plan_write -> FileLayout ->
//           CScanScheduler::submit / dispatch
//   device  each dispatched request -> Disk::service and Wnic::service
//   core    the task's profiles -> segment_stages -> SourceEstimator
//           (disk and network) -> decide_source, once per stage
//
// The replay is a timing probe, not a simulation: time advances by the
// disk's completions and each program's think times, and evicted dirty
// pages are not written back. Every timed call pays two clock reads
// (tens of ns), which the per-call figures include.
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct ProbeTotals {
  std::uint64_t tasks = 0;
  double vfs_construct_s = 0.0;
  std::uint64_t plans = 0;
  double plan_s = 0.0;
  std::uint64_t cscan_requests = 0;  ///< Requests submitted.
  double cscan_s = 0.0;              ///< submit + dispatch time.
  std::uint64_t disk_services = 0;
  double disk_s = 0.0;
  std::uint64_t wnic_services = 0;
  double wnic_s = 0.0;
  std::uint64_t estimates = 0;  ///< Stages priced on both sources.
  double estimate_s = 0.0;      ///< Both estimates + the decision rule.

  void merge(const ProbeTotals& o);
};

/// Replays one task's programs through the os and device layers with the
/// task's configuration, and — when `profiles` is non-empty — prices its
/// evaluation stages through the core layer at `loss_rate`.
ProbeTotals probe_task(const std::vector<flexfetch::sim::ProgramSpec>& programs,
                       const flexfetch::sim::SimConfig& config,
                       const std::vector<flexfetch::core::Profile>& profiles,
                       double loss_rate);

}  // namespace perfbench
