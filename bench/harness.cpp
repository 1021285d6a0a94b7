#include "harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>

#include "faults/schedule.hpp"
#include "policies/factory.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"

namespace flexfetch::bench {

sim::SimResult run_once(const workloads::ScenarioBundle& scenario,
                        const std::string& policy_name,
                        const device::WnicParams& wnic) {
  sim::SweepCell cell;
  cell.scenario = &scenario;
  cell.policy = policy_name;
  cell.wnic = wnic;
  return sim::run_cell(cell);
}

void ParsedFlags::add(std::string name, bool* target) {
  flags_.push_back(
      Flag{.name = "--" + std::move(name), .value_name = "", .bool_target = target});
}

void ParsedFlags::add(std::string name, int* target, std::string value_name) {
  flags_.push_back(Flag{.name = "--" + std::move(name),
                        .value_name = std::move(value_name),
                        .int_target = target});
}

void ParsedFlags::add(std::string name, std::uint64_t* target,
                      std::string value_name) {
  flags_.push_back(Flag{.name = "--" + std::move(name),
                        .value_name = std::move(value_name),
                        .u64_target = target});
}

void ParsedFlags::add(std::string name, std::string* target,
                      std::string value_name) {
  flags_.push_back(Flag{.name = "--" + std::move(name),
                        .value_name = std::move(value_name),
                        .string_target = target});
}

void ParsedFlags::print_flag_list(std::FILE* to) const {
  std::fprintf(to, "accepted flags:\n");
  for (const Flag& f : flags_) {
    if (f.value_name.empty()) {
      std::fprintf(to, "  %s\n", f.name.c_str());
    } else {
      std::fprintf(to, "  %s %s   (also %s=%s)\n", f.name.c_str(),
                   f.value_name.c_str(), f.name.c_str(),
                   f.value_name.c_str());
    }
  }
  std::fprintf(to, "  --help, -h\n");
  std::fprintf(to, "  --benchmark_*   (passed through to google-benchmark)\n");
}

void ParsedFlags::usage_and_exit(const char* argv0, const char* problem,
                                 const char* arg) const {
  std::fprintf(stderr, "%s: %s '%s'\n", argv0, problem, arg);
  print_flag_list(stderr);
  std::exit(2);
}

void ParsedFlags::parse(int& argc, char** argv) const {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::printf("usage: %s [flags]\n", argv[0]);
      print_flag_list(stdout);
      std::exit(0);
    }
    const Flag* matched = nullptr;
    const char* inline_value = nullptr;
    for (const Flag& f : flags_) {
      if (std::strcmp(a, f.name.c_str()) == 0) {
        matched = &f;
        break;
      }
      // `--flag=VALUE` spelling, only meaningful for value flags.
      if (!f.value_name.empty() &&
          std::strncmp(a, f.name.c_str(), f.name.size()) == 0 &&
          a[f.name.size()] == '=') {
        matched = &f;
        inline_value = a + f.name.size() + 1;
        break;
      }
    }
    if (matched == nullptr) {
      if (std::strncmp(a, "--benchmark_", 12) == 0) {
        argv[out++] = argv[i];  // Left for google-benchmark to parse.
        continue;
      }
      usage_and_exit(argv[0], "unknown argument", a);
    }
    if (matched->bool_target != nullptr) {
      *matched->bool_target = true;
      continue;
    }
    const char* value = inline_value;
    if (value == nullptr) {
      if (i + 1 >= argc) usage_and_exit(argv[0], "missing value for", a);
      value = argv[++i];
    }
    bool ok = true;
    if (matched->int_target != nullptr) {
      ok = parse_number(value, *matched->int_target);
    } else if (matched->u64_target != nullptr) {
      ok = parse_number(value, *matched->u64_target);
    } else {
      *matched->string_target = value;
    }
    if (!ok) usage_and_exit(argv[0], ("bad number for " + matched->name).c_str(), value);
  }
  argc = out;
  argv[argc] = nullptr;
}

namespace {

/// Prints one header + one row per sweep point.
void print_table_header(const std::string& axis,
                        const std::vector<std::string>& columns) {
  std::printf("%-14s", axis.c_str());
  for (const auto& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
}

void print_table_row(double axis_value, const std::vector<double>& cells) {
  std::printf("%-14.2f", axis_value);
  for (const double v : cells) std::printf(" %14.1f", v);
  std::printf("\n");
}

std::vector<std::string> display_names(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const auto& n : names) {
    if (n == "flexfetch") out.push_back("FlexFetch");
    else if (n == "flexfetch-static") out.push_back("FlexFetch-static");
    else if (n == "bluefs") out.push_back("BlueFS");
    else if (n == "disk-only") out.push_back("Disk-only");
    else if (n == "wnic-only") out.push_back("WNIC-only");
    else if (n == "oracle") out.push_back("Oracle");
    else out.push_back(n);
  }
  return out;
}

/// Merges each policy's per-cell metrics and prints one block per policy.
void print_metrics_summary(const SweepSpec& spec,
                           const std::vector<sim::SweepCell>& cells,
                           const std::vector<sim::SimResult>& results) {
  std::printf("telemetry metrics, merged per policy (%zu cells each; "
              "counters sum, gauges keep the last cell's value)\n",
              spec.policies.empty() ? 0 : cells.size() / spec.policies.size());
  for (const auto& p : spec.policies) {
    telemetry::MetricsRegistry merged;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].policy == p) merged.merge(results[i].metrics);
    }
    std::printf("[%s]\n", p.c_str());
    for (const auto& [name, metric] : merged.items()) {
      std::printf("  %-32s %.6g\n", name.c_str(), metric.value);
    }
  }
  std::printf("\n");
}

}  // namespace

std::vector<sim::SweepCell> figure_cells(
    const workloads::ScenarioBundle& scenario, const SweepSpec& spec) {
  const device::WnicParams base = device::WnicParams::cisco_aironet350();
  // One schedule per figure, shared by every cell: each cell's SimConfig
  // copies it, so the grid stays embarrassingly parallel.
  faults::FaultSchedule fault_schedule;
  if (spec.fault_seed != 0) {
    fault_schedule = faults::generate_schedule(spec.fault_seed);
  }
  std::vector<sim::SweepCell> cells;
  cells.reserve((spec.latencies_ms.size() + spec.bandwidths_mbps.size()) *
                spec.policies.size());
  for (const double ms : spec.latencies_ms) {
    for (const auto& p : spec.policies) {
      sim::SweepCell cell;
      cell.scenario = &scenario;
      cell.policy = p;
      cell.wnic = base.with_latency(units::ms(ms));
      cell.axis = "latency_ms";
      cell.axis_value = ms;
      cell.config.faults = fault_schedule;
      cells.push_back(std::move(cell));
    }
  }
  for (const double mbps : spec.bandwidths_mbps) {
    for (const auto& p : spec.policies) {
      sim::SweepCell cell;
      cell.scenario = &scenario;
      cell.policy = p;
      cell.wnic = base.with_bandwidth_mbps(mbps);
      cell.axis = "bandwidth_mbps";
      cell.axis_value = mbps;
      cell.config.faults = fault_schedule;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

void print_figure(const std::string& figure_label,
                  const workloads::ScenarioBundle& scenario,
                  const SweepSpec& spec) {
  auto cells = figure_cells(scenario, spec);
  if (spec.metrics || !spec.trace_out.empty()) {
    for (auto& cell : cells) {
      // Metrics-only mode (the default ring_capacity 0): exact counters
      // and histograms, no events admitted or constructed.
      cell.config.telemetry.enabled = true;
    }
    if (!spec.trace_out.empty() && !cells.empty()) {
      // Event capture is opt-in per cell.
      cells[0].config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
    }
  }
  const auto results = sim::run_sweep(cells, {.jobs = spec.jobs});

  std::printf("=== %s : %s ===\n", figure_label.c_str(), scenario.name.c_str());
  std::printf("(energy in joules; rows are the sweep axis)\n\n");

  // Results arrive in the same row-major (axis point, policy) order the
  // cells were built in; walk them back out as table rows.
  std::size_t i = 0;
  std::printf("(a) WNIC latency sweep at 11 Mbps\n");
  print_table_header("latency[ms]", display_names(spec.policies));
  for (const double ms : spec.latencies_ms) {
    std::vector<double> row;
    row.reserve(spec.policies.size());
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      row.push_back(results[i++].total_energy().value());
    }
    print_table_row(ms, row);
  }

  std::printf("\n(b) WNIC bandwidth sweep at 1 ms latency\n");
  print_table_header("bw[Mbps]", display_names(spec.policies));
  for (const double mbps : spec.bandwidths_mbps) {
    std::vector<double> row;
    row.reserve(spec.policies.size());
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      row.push_back(results[i++].total_energy().value());
    }
    print_table_row(mbps, row);
  }
  std::printf("\n");

  if (spec.metrics) print_metrics_summary(spec, cells, results);
  if (!spec.trace_out.empty() && !results.empty()) {
    std::ofstream os(spec.trace_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   spec.trace_out.c_str());
    } else {
      telemetry::write_chrome_trace(
          os, std::span<const telemetry::TraceEvent>(results[0].trace_events),
          results[0].trace_events_dropped, &results[0].metrics);
      std::printf("wrote Chrome trace of cell 0 (%s / %s) to %s\n",
                  scenario.name.c_str(), cells[0].policy.c_str(),
                  spec.trace_out.c_str());
    }
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace flexfetch::bench
