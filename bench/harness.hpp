// Shared harness for the bench binaries: runs the paper's policy sweeps over
// WNIC latency and bandwidth and prints the paper-style series, and parses
// command-line flags. The grid is fanned out across worker threads by the
// sweep engine (sim/sweep.hpp); results are deterministic and printed in
// grid order.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::bench {

/// Sweep axes used throughout the paper's evaluation (Section 3.3): WNIC
/// latency at fixed 11 Mbps, and the 802.11b bandwidths at fixed 1 ms.
struct SweepSpec {
  std::vector<double> latencies_ms = {0.0,  1.0,  3.0,  5.0,  7.0,  9.0, 12.0,
                                      15.0, 20.0, 30.0, 50.0, 70.0, 100.0};
  std::vector<double> bandwidths_mbps = {1.0, 2.0, 5.5, 11.0};
  /// Policy factory names (see policies::make_policy).
  std::vector<std::string> policies;
  /// Worker threads; <= 0 resolves FF_JOBS then hardware_concurrency().
  int jobs = 0;
  /// Collect per-cell telemetry metrics (metrics-only mode, no event
  /// buffers) and print a merged per-policy summary after the figure.
  bool metrics = false;
  /// If non-empty, record full events for the figure's first cell and
  /// write them there as Chrome trace_event JSON (chrome://tracing).
  std::string trace_out;
  /// Non-zero: inject the deterministic fault schedule generated from this
  /// seed (WNIC outages/degradations + disk spin-up stalls) into every
  /// cell. Zero (default) leaves the grid fault-free.
  std::uint64_t fault_seed = 0;
};

/// Runs one scenario under one policy with the given WNIC parameters.
sim::SimResult run_once(const workloads::ScenarioBundle& scenario,
                        const std::string& policy_name,
                        const device::WnicParams& wnic);

/// Builds the figure's (a) latency-panel and (b) bandwidth-panel cells, in
/// the row-major order print_figure prints them.
std::vector<sim::SweepCell> figure_cells(
    const workloads::ScenarioBundle& scenario, const SweepSpec& spec);

/// Prints "(a) energy vs latency" and "(b) energy vs bandwidth" tables for
/// the scenario — the two panels of each figure in Section 3.3. Cells run
/// in parallel per `spec.jobs`.
void print_figure(const std::string& figure_label,
                  const workloads::ScenarioBundle& scenario,
                  const SweepSpec& spec);

/// Declarative command-line flag table. Each bench binary registers the
/// flags it understands (`add`), then calls `parse` once: anything that is
/// not a registered flag prints a generated usage message and exits with
/// status 2 — unknown flags are never silently ignored. So does a numeric
/// value that parse_whole rejects (`--jobs abc`, `--fault-seed 7x`,
/// `--fault-seed -1`, `--users 1e5`). Adding a new flag is one `add` call;
/// spelling variants (`--flag VALUE` and `--flag=VALUE`), the per-flag
/// usage listing that an unknown argument triggers, and `--help`/`-h` all
/// come for free.
class ParsedFlags {
 public:
  /// Bare boolean flag: `--name` sets *target to true.
  void add(std::string name, bool* target);
  /// Integer flag: `--name N` or `--name=N`.
  void add(std::string name, int* target, std::string value_name);
  /// Unsigned 64-bit flag (seeds): `--name N` or `--name=N`.
  void add(std::string name, std::uint64_t* target, std::string value_name);
  /// String flag: `--name VALUE` or `--name=VALUE`.
  void add(std::string name, std::string* target, std::string value_name);

  /// Parses every argument after argv[0] into the registered targets.
  void parse(int argc, const char* const* argv) const;

  /// Prints "<argv0>: <problem> '<arg>'" and the flag list to stderr, then
  /// exits with status 2 — for values a bench checks after parse().
  [[noreturn]] void usage_and_exit(const char* argv0, const char* problem,
                                   const char* arg) const;

 private:
  struct Flag {
    std::string name;           // Including the leading "--".
    std::string value_name;     // Empty for booleans.
    bool* bool_target = nullptr;
    int* int_target = nullptr;
    std::uint64_t* u64_target = nullptr;
    std::string* string_target = nullptr;
  };
  /// One line per registered flag, plus --help.
  void print_flag_list(std::FILE* to) const;
  std::vector<Flag> flags_;
};

/// Splits a comma-separated flag value ("a,b,c"); "" gives one empty field.
std::vector<std::string> split_csv(const std::string& s);

/// Host wall-clock seconds since `start`, for the benches' timing fields.
double wall_seconds_since(std::chrono::steady_clock::time_point start);

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss). Benches record it into their JSON artifacts so
/// memory-boundedness claims (fleet shards) are checkable from the
/// record. Lives in bench/, not src/: it is a host measurement,
/// like wall clocks.
std::uint64_t peak_rss_bytes();

}  // namespace flexfetch::bench
