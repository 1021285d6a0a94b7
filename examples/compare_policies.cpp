// Runs every Section 3.3 scenario under the full policy set at the default
// network conditions (11 Mbps, 1 ms) and prints an energy comparison table.
// The (scenario, policy) grid is fanned out by the parallel sweep engine.
//
//   ./build/examples/compare_policies [seed] [--jobs N] [--metrics]
//                                     [--trace-out FILE]
//
// --metrics appends a per-policy telemetry metrics summary (merged across
// scenarios); --trace-out writes a Chrome trace_event JSON of the first
// grid cell, loadable in chrome://tracing or https://ui.perfetto.dev.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>

#include "common/format.hpp"
#include "sim/sweep.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/scenarios.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [seed] [--jobs N] [--metrics] [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexfetch;
  std::uint64_t seed = 1;
  int jobs = 0;
  bool metrics = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      seed = std::strtoull(argv[i], nullptr, 10);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }

  const std::vector<std::string> policy_names = {
      "flexfetch", "flexfetch-static", "bluefs", "disk-only", "wnic-only",
      "oracle"};

  const auto scenarios = workloads::all_scenarios(seed);
  std::vector<const workloads::ScenarioBundle*> refs;
  refs.reserve(scenarios.size());
  for (const auto& s : scenarios) refs.push_back(&s);

  auto cells = sim::make_grid(refs, policy_names,
                              {device::WnicParams::cisco_aironet350()});
  if (metrics || !trace_out.empty()) {
    for (auto& cell : cells) {
      cell.config.telemetry.enabled = true;  // metrics-only by default
    }
    if (!trace_out.empty() && !cells.empty()) {
      cells[0].config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
    }
  }
  const auto results = sim::run_sweep(cells, {.jobs = jobs});

  std::size_t i = 0;
  for (const auto& scenario : scenarios) {
    std::printf("=== %s ===\n", scenario.name.c_str());
    std::printf("%-18s %12s %12s %12s %10s\n", "policy", "energy", "disk",
                "wnic", "makespan");
    for (std::size_t p = 0; p < policy_names.size(); ++p) {
      const sim::SimResult& r = results[i++];
      std::printf("%-18s %12s %12s %12s %10s\n", r.policy.c_str(),
                  format_joules(r.total_energy()).c_str(),
                  format_joules(r.disk_energy()).c_str(),
                  format_joules(r.wnic_energy()).c_str(),
                  format_seconds(r.makespan).c_str());
    }
    std::printf("\n");
  }

  if (metrics) {
    std::printf("telemetry metrics, merged per policy across %zu scenarios\n",
                scenarios.size());
    for (const auto& p : policy_names) {
      telemetry::MetricsRegistry merged;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].policy == p) merged.merge(results[c].metrics);
      }
      std::printf("[%s]\n", p.c_str());
      for (const auto& [name, metric] : merged.items()) {
        std::printf("  %-32.*s %.6g\n", static_cast<int>(name.size()),
                    name.data(), metric.value);
      }
    }
    std::printf("\n");
  }

  if (!trace_out.empty() && !results.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 1;
    }
    telemetry::write_chrome_trace(
        os, std::span<const telemetry::TraceEvent>(results[0].trace_events),
        results[0].trace_events_dropped, &results[0].metrics);
    std::printf("wrote Chrome trace of cell 0 (%s / %s) to %s\n",
                cells[0].scenario->name.c_str(), cells[0].policy.c_str(),
                trace_out.c_str());
  }
  return 0;
}
