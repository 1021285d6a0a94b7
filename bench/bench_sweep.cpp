// Full evaluation-grid sweep driver: every Section 3.3 scenario under the
// standard policy set across all 17 WNIC sweep points, fanned out by the
// parallel sweep engine.
//
//   ./build/bench/bench_sweep [--jobs N] [--policies a,b,c] [--seed S]
//                             [--out FILE] [--metrics] [--trace-out FILE]
//                             [--fault-seed S] [--aggregate-out FILE]
//
// Runs the grid once serially (jobs=1, the baseline) and once with N
// workers, verifies the parallel results are bit-identical to the serial
// ones, and writes a machine-readable BENCH_sweep.json with per-cell
// energy/time plus the wall-clock speedup. When only one worker is
// effective the baseline pass would duplicate the measured pass
// bit-for-bit, so it is skipped and the JSON carries
// `"serial_fallback": true` instead of a speedup.
//
// The parallel pass streams through run_sweep_streaming: each cell result
// is checked against the serial baseline and folded into per-stratum
// aggregates (Welford stats + merged metrics/histograms) the moment it
// completes, in grid order. --aggregate-out writes that constant-size
// aggregate record.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "policies/factory.hpp"
#include "sim/sweep.hpp"
#include "telemetry/exporters.hpp"
#include "workloads/scenarios.hpp"

using namespace flexfetch;

namespace {

/// Field-by-field equality over everything the JSON emitter records.
bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a.policy == b.policy && a.makespan == b.makespan &&
         a.io_time == b.io_time && a.total_energy() == b.total_energy() &&
         a.disk_energy() == b.disk_energy() &&
         a.wnic_energy() == b.wnic_energy() && a.syscalls == b.syscalls &&
         a.disk_requests == b.disk_requests &&
         a.net_requests == b.net_requests && a.disk_bytes == b.disk_bytes &&
         a.net_bytes == b.net_bytes;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sweep: %s\n", e.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  int jobs = 0;
  std::uint64_t seed = 1;
  std::uint64_t fault_seed = 0;
  std::string out_path = "BENCH_sweep.json";
  std::string trace_out;
  std::string aggregate_out;
  bool metrics = false;
  std::vector<std::string> policy_names = policies::standard_policy_names();
  std::string policies_csv;
  bench::ParsedFlags flags;
  flags.add("jobs", &jobs, "N");
  flags.add("policies", &policies_csv, "a,b,c");
  flags.add("seed", &seed, "S");
  flags.add("fault-seed", &fault_seed, "S");
  flags.add("out", &out_path, "FILE");
  flags.add("metrics", &metrics);
  flags.add("trace-out", &trace_out, "FILE");
  flags.add("aggregate-out", &aggregate_out, "FILE");
  flags.parse(argc, argv);
  if (!policies_csv.empty()) policy_names = bench::split_csv(policies_csv);
  const sim::JobsResolution jobs_resolution = sim::resolve_jobs_detail(jobs);
  jobs = jobs_resolution.effective;
  // With one effective worker the streaming pass below already runs the
  // grid serially — a separate jobs=1 baseline would be a bit-identical
  // duplicate of it, so skip the redundant pass and flag the fallback.
  const bool serial_fallback = jobs <= 1;

  const auto scenarios = workloads::all_scenarios(seed);
  bench::SweepSpec spec;
  spec.policies = policy_names;
  spec.fault_seed = fault_seed;

  std::vector<sim::SweepCell> cells;
  for (const auto& scenario : scenarios) {
    auto figure = bench::figure_cells(scenario, spec);
    cells.insert(cells.end(), figure.begin(), figure.end());
  }
  if (metrics || !trace_out.empty()) {
    for (auto& cell : cells) {
      // Metrics-only telemetry (the default, ring_capacity 0): per-cell
      // counters and histograms land in the JSON record without any cell
      // admitting — or even constructing — a single event.
      cell.config.telemetry.enabled = true;
    }
    if (!trace_out.empty()) {
      // Full event capture is a per-cell opt-in.
      cells[0].config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
    }
  }
  std::printf("sweep grid: %zu scenarios x %zu policies x %zu points = %zu "
              "cells, jobs=%d\n",
              scenarios.size(), spec.policies.size(),
              spec.latencies_ms.size() + spec.bandwidths_mbps.size(),
              cells.size(), jobs);
  if (fault_seed != 0) {
    std::printf("fault injection: schedule seed %llu applied to every cell\n",
                static_cast<unsigned long long>(fault_seed));
  }

  sim::SweepRunInfo info;
  info.jobs = jobs;
  info.jobs_requested = jobs_resolution.requested;
  info.serial_fallback = serial_fallback;
  if (serial_fallback) {
    std::printf("serial fallback: 1 effective worker, the single pass below "
                "is its own jobs=1 baseline (no separate serial pass, no "
                "speedup to measure)\n");
  }

  std::vector<sim::SimResult> serial;
  if (!serial_fallback) {
    const auto t0 = std::chrono::steady_clock::now();
    serial = sim::run_sweep(cells, {.jobs = 1});
    info.serial_wall_seconds = bench::wall_seconds_since(t0);
    std::printf("serial  (jobs=1): %.2f s\n", info.serial_wall_seconds);
  }

  // The parallel pass streams: each result is verified against the serial
  // baseline and folded into the aggregator as it completes (in grid
  // order), then kept for the per-cell JSON record.
  sim::SweepAggregator aggregator;
  std::vector<sim::SimResult> parallel(cells.size());
  std::size_t mismatches = 0;
  const auto t1 = std::chrono::steady_clock::now();
  sim::run_sweep_streaming(
      cells, {.jobs = jobs},
      [&](std::size_t i, const sim::SweepCell& cell, sim::SimResult&& result) {
        if (!serial_fallback && !results_identical(serial[i], result)) {
          ++mismatches;
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION at cell %zu (%s / %s): parallel "
                       "result differs from serial baseline\n",
                       i, cell.scenario->name.c_str(), cell.policy.c_str());
        }
        aggregator.add(cell, result);
        parallel[i] = std::move(result);
      });
  info.wall_seconds = bench::wall_seconds_since(t1);
  std::printf("parallel (jobs=%d): %.2f s", jobs, info.wall_seconds);
  if (!serial_fallback) std::printf("  speedup=%.2fx", info.speedup());
  std::printf("\n");

  if (mismatches > 0) return 1;
  if (!serial_fallback) {
    std::printf("determinism: parallel results identical to serial baseline "
                "(%zu cells)\n",
                cells.size());
  }

  info.peak_rss_bytes = bench::peak_rss_bytes();
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  sim::write_sweep_json(os, cells, parallel, info);
  std::printf("wrote %s\n", out_path.c_str());

  if (!aggregate_out.empty()) {
    std::ofstream agg_os(aggregate_out);
    if (!agg_os) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   aggregate_out.c_str());
      return 1;
    }
    sim::write_aggregate_json(agg_os, aggregator, info);
    std::printf("wrote %s (%zu strata)\n", aggregate_out.c_str(),
                aggregator.strata().size());
  }

  if (!trace_out.empty()) {
    std::ofstream trace_os(trace_out);
    if (!trace_os) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 1;
    }
    telemetry::write_chrome_trace(
        trace_os,
        std::span<const telemetry::TraceEvent>(parallel[0].trace_events),
        parallel[0].trace_events_dropped, &parallel[0].metrics);
    std::printf("wrote Chrome trace of cell 0 (%s / %s) to %s\n",
                cells[0].scenario->name.c_str(), cells[0].policy.c_str(),
                trace_out.c_str());
  }
  return 0;
}
