// bench_telemetry: the telemetry overhead gate. One full grep simulation
// under Disk-only is timed (min of 9) with telemetry off, metrics-on (the
// production default) and full ring capture. The run fails if enabling
// telemetry changes any simulation result, or if metrics-on costs 5% or
// more of the telemetry-off wall-clock. All three timings are recorded in
// BENCH_telemetry.json (path overridable with --telemetry-out FILE).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "workloads/generators.hpp"

using namespace flexfetch;

namespace {

/// Min-of-K wall-clock of one full grep simulation under `config`.
double min_sim_millis(const sim::SimConfig& config, const trace::Trace& trace,
                      sim::SimResult* out) {
  constexpr int kRuns = 9;
  double best = 1e18;
  for (int i = 0; i < kRuns; ++i) {
    policies::DiskOnlyPolicy policy;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = sim::simulate(config, trace, policy);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, ms);
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

/// The enforced overhead budget for metrics-on telemetry, in percent of
/// the telemetry-off wall-clock. CI runs this as a failing gate.
constexpr double kMetricsOverheadBudgetPct = 5.0;

/// Times telemetry off vs metrics-on (the production default) vs full
/// ring capture, asserts identical simulation outcomes, records all three
/// in a JSON file diffable across PRs, and fails when metrics-on overhead
/// blows the budget.
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

  const auto pct = [off_ms](double ms) {
    return off_ms > 0.0 ? (ms / off_ms - 1.0) * 100.0 : 0.0;
  };
  const double overhead_pct = pct(metrics_ms);
  const double ring_overhead_pct = pct(ring_ms);
  std::printf("telemetry overhead (grep, disk-only, min of 9): off=%.2f ms  "
              "metrics-on=%.2f ms (%+.1f%%)  ring=%.2f ms (%+.1f%%), "
              "results identical\n",
              off_ms, metrics_ms, overhead_pct, ring_ms, ring_overhead_pct);

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
  os << "  \"results_identical\": true\n";
  os << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (overhead_pct >= kMetricsOverheadBudgetPct) {
    std::fprintf(stderr,
                 "TELEMETRY OVERHEAD GATE: metrics-on costs %+.1f%% "
                 "(budget < %.1f%%)\n",
                 overhead_pct, kMetricsOverheadBudgetPct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string telemetry_out = "BENCH_telemetry.json";
  bench::ParsedFlags flags;
  flags.add("telemetry-out", &telemetry_out, "FILE");
  flags.parse(argc, argv);
  return record_telemetry_overhead(telemetry_out);
}
