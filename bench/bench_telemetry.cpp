// bench_telemetry: the telemetry overhead gates.
//
// One full grep simulation under Disk-only is timed (min of 9) with
// telemetry off, metrics-on (the production default) and full ring
// capture; metrics-on must cost under 5% of the telemetry-off wall-clock.
// One block of short fleet users (256 users at workload scale 0.15, the
// fleet defaults) is timed with metrics off and on, alternating, min of 9
// each; there the per-simulation fixed costs of metrics (filling a cell's
// registry, merging it into its stratum) weigh most, and metrics-on must
// cost under 10%. The run fails if enabling telemetry changes any
// simulation result or any stratum's headline stats, or if either budget
// is blown. Every timing is recorded in BENCH_telemetry.json (path
// overridable with --telemetry-out FILE).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "fleet/catalog.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "harness.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

using namespace flexfetch;

namespace {

constexpr int kRuns = 9;

double millis_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Min-of-K wall-clock of one full grep simulation under `config`.
double min_sim_millis(const sim::SimConfig& config, const trace::Trace& trace,
                      sim::SimResult* out) {
  double best = 1e18;
  for (int i = 0; i < kRuns; ++i) {
    policies::DiskOnlyPolicy policy;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = sim::simulate(config, trace, policy);
    best = std::min(best, millis_since(t0));
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

/// The enforced overhead budget for metrics-on telemetry, in percent of
/// the telemetry-off wall-clock. CI runs this as a failing gate.
constexpr double kMetricsOverheadBudgetPct = 5.0;
/// The same for one block of short fleet users.
constexpr double kFleetBlockBudgetPct = 10.0;

bool same_stat(const sim::RunningStat& a, const sim::RunningStat& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.m2() == b.m2() &&
         a.min() == b.min() && a.max() == b.max();
}

/// True iff both aggregates have the same strata with bit-identical
/// headline stats (energy, disk and WNIC energy, makespan, I/O time).
bool same_headlines(const sim::SweepAggregator& a,
                    const sim::SweepAggregator& b) {
  if (a.strata().size() != b.strata().size()) return false;
  for (const auto& [key, sa] : a.strata()) {
    const auto it = b.strata().find(key);
    if (it == b.strata().end()) return false;
    const sim::StratumAggregate& sb = it->second;
    if (sa.cells != sb.cells || !same_stat(sa.energy_j, sb.energy_j) ||
        !same_stat(sa.disk_energy_j, sb.disk_energy_j) ||
        !same_stat(sa.wnic_energy_j, sb.wnic_energy_j) ||
        !same_stat(sa.makespan_s, sb.makespan_s) ||
        !same_stat(sa.io_time_s, sb.io_time_s)) {
      return false;
    }
  }
  return true;
}

struct FleetBlockTiming {
  double off_ms = 1e18;
  double on_ms = 1e18;
  bool identical = true;
};

/// Block 0 of a default-settings population (256 users at workload scale
/// 0.15) run with metrics off and on, alternating, min of 9 each. Every
/// scenario bundle is built first, so neither side pays for one.
FleetBlockTiming time_fleet_block() {
  fleet::FleetConfig on;
  on.users = on.block_size;
  on.telemetry = true;
  fleet::FleetConfig off = on;
  off.telemetry = false;
  const fleet::PopulationGenerator gen{on.population};
  fleet::ScenarioCatalog catalog(on.population.scenario_seed,
                                 on.population.think_scales, on.tuning);
  for (std::size_t sc = 0; sc < workloads::kScenarioCount; ++sc) {
    for (std::size_t b = 0; b < on.population.think_scales.size(); ++b) {
      catalog.bundle(sc, b);
    }
  }

  FleetBlockTiming t;
  for (int i = 0; i < kRuns; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    const fleet::BlockSummary block_off = fleet::run_block(off, gen, catalog, 0);
    t.off_ms = std::min(t.off_ms, millis_since(t0));
    t0 = std::chrono::steady_clock::now();
    const fleet::BlockSummary block_on = fleet::run_block(on, gen, catalog, 0);
    t.on_ms = std::min(t.on_ms, millis_since(t0));
    t.identical = t.identical && same_headlines(block_off.agg, block_on.agg);
  }
  return t;
}

/// Times telemetry off vs metrics-on (the production default) vs full
/// ring capture on grep, and metrics off vs on on a fleet block; asserts
/// identical simulation outcomes, records every timing in a JSON file
/// diffable across PRs, and fails when metrics-on overhead blows either
/// budget.
int record_telemetry_overhead(const std::string& out_path) {
  const auto trace = workloads::grep_trace();
  sim::SimConfig off;
  sim::SimConfig metrics_on;
  metrics_on.telemetry.enabled = true;  // ring_capacity 0: metrics-only
  sim::SimConfig ring_on;
  ring_on.telemetry.enabled = true;
  ring_on.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;

  sim::SimResult r_off, r_metrics, r_ring;
  const double off_ms = min_sim_millis(off, trace, &r_off);
  const double metrics_ms = min_sim_millis(metrics_on, trace, &r_metrics);
  const double ring_ms = min_sim_millis(ring_on, trace, &r_ring);

  const auto identical = [&](const sim::SimResult& r) {
    return r_off.total_energy() == r.total_energy() &&
           r_off.makespan == r.makespan && r_off.io_time == r.io_time &&
           r_off.syscalls == r.syscalls &&
           r_off.disk_requests == r.disk_requests &&
           r_off.net_requests == r.net_requests;
  };
  if (!identical(r_metrics) || !identical(r_ring)) {
    std::fprintf(stderr,
                 "TELEMETRY PERTURBATION: enabling telemetry changed the "
                 "simulation result\n");
    return 1;
  }

  const FleetBlockTiming fleet_block = time_fleet_block();
  if (!fleet_block.identical) {
    std::fprintf(stderr,
                 "TELEMETRY PERTURBATION: enabling telemetry changed a fleet "
                 "stratum's headline stats\n");
    return 1;
  }

  const auto pct = [](double ms, double base_ms) {
    return base_ms > 0.0 ? (ms / base_ms - 1.0) * 100.0 : 0.0;
  };
  const double overhead_pct = pct(metrics_ms, off_ms);
  const double ring_overhead_pct = pct(ring_ms, off_ms);
  const double fleet_overhead_pct =
      pct(fleet_block.on_ms, fleet_block.off_ms);
  std::printf("telemetry overhead (grep, disk-only, min of 9): off=%.2f ms  "
              "metrics-on=%.2f ms (%+.1f%%)  ring=%.2f ms (%+.1f%%), "
              "results identical\n",
              off_ms, metrics_ms, overhead_pct, ring_ms, ring_overhead_pct);
  std::printf("telemetry overhead (fleet block, 256 users, min of 9): "
              "off=%.2f ms  metrics-on=%.2f ms (%+.1f%%), stats identical\n",
              fleet_block.off_ms, fleet_block.on_ms, fleet_overhead_pct);

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  os << "{\n";
  os << "  \"scenario\": \"grep (disk-only)\",\n";
  os << "  \"runs\": 9,\n";
  os << "  \"telemetry_off_ms\": " << off_ms << ",\n";
  os << "  \"telemetry_on_ms\": " << metrics_ms << ",\n";
  os << "  \"overhead_pct\": " << overhead_pct << ",\n";
  os << "  \"overhead_budget_pct\": " << kMetricsOverheadBudgetPct << ",\n";
  os << "  \"ring_on_ms\": " << ring_ms << ",\n";
  os << "  \"ring_overhead_pct\": " << ring_overhead_pct << ",\n";
  os << "  \"events_emitted\": "
     << r_ring.metrics.value("telemetry.events_emitted") << ",\n";
  os << "  \"fleet_block_off_ms\": " << fleet_block.off_ms << ",\n";
  os << "  \"fleet_block_on_ms\": " << fleet_block.on_ms << ",\n";
  os << "  \"fleet_block_overhead_pct\": " << fleet_overhead_pct << ",\n";
  os << "  \"fleet_block_budget_pct\": " << kFleetBlockBudgetPct << ",\n";
  os << "  \"results_identical\": true\n";
  os << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  int status = 0;
  if (overhead_pct >= kMetricsOverheadBudgetPct) {
    std::fprintf(stderr,
                 "TELEMETRY OVERHEAD GATE: metrics-on costs %+.1f%% "
                 "(budget < %.1f%%)\n",
                 overhead_pct, kMetricsOverheadBudgetPct);
    status = 1;
  }
  if (fleet_overhead_pct >= kFleetBlockBudgetPct) {
    std::fprintf(stderr,
                 "TELEMETRY OVERHEAD GATE: metrics-on costs %+.1f%% on a "
                 "fleet block (budget < %.1f%%)\n",
                 fleet_overhead_pct, kFleetBlockBudgetPct);
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::string telemetry_out = "BENCH_telemetry.json";
  bench::ParsedFlags flags;
  flags.add("telemetry-out", &telemetry_out, "FILE");
  flags.parse(argc, argv);
  return record_telemetry_overhead(telemetry_out);
}
