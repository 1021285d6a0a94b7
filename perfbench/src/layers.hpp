// Per-layer metrics of the traced run: the fixed metric list every
// workload prints, the counters folded from task results and policies,
// and the traced task runner shared by grid and fleet.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "probes.hpp"
#include "sim/policy.hpp"
#include "sim/results.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace perfbench {

/// Work counters of one pass, folded from SimResults and policy state.
struct TaskCounts {
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;  ///< Simulator::step() calls that did work.
  std::uint64_t syscalls = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t sched_submitted = 0;
  std::uint64_t sched_merged = 0;
  std::uint64_t disk_requests = 0;
  std::uint64_t disk_spin_ups = 0;
  std::uint64_t wnic_requests = 0;
  std::uint64_t wnic_wakes = 0;
  std::uint64_t ff_tracked = 0;   ///< Syscalls FlexFetch tracked.
  std::uint64_t ff_replayed = 0;  ///< Requests its estimators replayed.
  std::uint64_t ff_shadow = 0;    ///< Requests its stage audit replayed.
  std::uint64_t ff_decisions = 0;

  void add(const flexfetch::sim::SimResult& r);
  /// Adds FlexFetch's own counters if `policy` is a FlexFetch variant.
  void add(const flexfetch::sim::Policy& policy);
  void merge(const TaskCounts& o);
};

/// Runs one sweep cell the way sim::run_cell does, but through
/// start/step/finish with a span around each call, so the result must be
/// bit-identical to run_cell's. Adds the task's counters to `counts`.
flexfetch::sim::SimResult run_traced_cell(const flexfetch::sim::SweepCell& cell,
                                          std::uint64_t task,
                                          TaskCounts& counts);

/// Compiles every program trace of `bundles` once more inside a
/// "trace.compile" span (the trace layer's share of set-up).
void time_trace_compile(
    const std::vector<flexfetch::workloads::ScenarioBundle>& bundles);

/// Values of the per-layer metrics, by name. Metrics a workload does not
/// exercise stay 0.
using LayerValues = std::map<std::string, double>;

/// Fills the metrics derived from span totals, one pass's counters and
/// the probes: construction and run times, event and syscall counts,
/// os / device / core figures.
void fill_task_layers(LayerValues& v, const TaskCounts& per_pass,
                      const ProbeTotals& probes);

/// Mean duration of the spans called `name`, times `scale` (0 if none).
double span_mean(const std::string& name, double scale);

/// trace_overhead_pct: how much slower traced passes ran than the
/// untraced passes they alternated with (medians).
void fill_trace_overhead(LayerValues& v, const PassLoop& loop);

/// telemetry.overhead_pct from one metrics-on pass of `tasks` tasks that
/// took `seconds`, against the median untraced (metrics-off) pass rate.
double telemetry_overhead_pct(const PassLoop& loop, std::uint64_t tasks,
                              double seconds);

/// Appends every per-layer metric, in the fixed order, to out.layers.
/// Throws if `values` names a metric that is not in the list.
void emit_layers(Outcome& out, const LayerValues& values);

/// Sum of the write-back flush counters in a metrics registry.
double writeback_flushes(const flexfetch::telemetry::MetricsRegistry& m);

}  // namespace perfbench
