// Shared plumbing of the perfbench program: run options, the metric list
// every workload fills, the pass loop with its digest gate, and small
// host-side helpers (clock, FNV-1a, peak RSS, medians).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/results.hpp"

namespace perfbench {

/// Parsed command line of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may write to (span dump, fleet checkpoints).
  std::string work_dir = ".bench_build/perfbench/work";
  /// Non-empty: the digest the first pass must produce (the golden).
  std::string expect_digest;
  /// Print a digest of the generated inputs and exit (seed-purity test).
  bool inputs_digest = false;
  /// Test hook: perturb one task result of the first measured pass, so
  /// the digest gate must trip.
  bool perturb = false;
};

/// One named, unit-carrying number of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// End-to-end metrics (printed by an untraced run).
  std::vector<Metric> metrics;
  /// Per-layer metrics (printed by a traced run).
  std::vector<Metric> layers;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
std::uint64_t fnv1a(std::uint64_t h, std::string_view s);
inline constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

std::string hex64(std::uint64_t v);

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

/// Median of a non-empty sample (copies; samples are small).
double median(std::vector<double> v);

/// Worker count of the parallel workloads: min(nproc, 4).
int bench_jobs();

/// Builds a workload's inputs into `slot`, timing each build; the
/// previous inputs are freed outside the timed region. A traced run
/// builds once; an untraced run repeats until it has built at least
/// `min_repeats` times and for at least `min_total_s`, so the median
/// (setup_s) is steady even though one build takes milliseconds.
template <typename T, typename Build>
std::vector<double> time_setups(std::unique_ptr<T>& slot, Build&& build,
                                bool once, int min_repeats = 11,
                                double min_total_s = 0.25) {
  std::vector<double> times;
  double total = 0.0;
  do {
    slot.reset();
    const auto t0 = Clock::now();
    slot = build();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  } while (!once && (static_cast<int>(times.size()) < min_repeats ||
                     total < min_total_s) &&
           times.size() < 1000);
  return times;
}

/// Sum of the modelled design's energy / blocked I/O time over the
/// FlexFetch tasks of one pass.
struct FlexFetchTotals {
  double energy_j = 0.0;
  double io_time_s = 0.0;
  void add(const flexfetch::sim::SimResult& r) {
    energy_j += r.total_energy().value();
    io_time_s += r.io_time.value();
  }
};

/// Perturbs one result so that its digest contribution changes (the
/// digest-gate test hook).
void perturb_result(flexfetch::sim::SimResult& r);

/// One measured pass: the task count and the pass digest.
struct PassResult {
  std::uint64_t tasks = 0;
  std::uint64_t digest = 0;
};

/// Drives the measured phase shared by every workload. `pass(i, traced)`
/// runs pass i (0 = the warm-up pass, whose digest is the reference);
/// a pass whose digest differs from the reference, or which throws,
/// counts all its tasks as failed. In an untraced run it repeats untraced
/// passes for `seconds`; in a traced run it alternates untraced and
/// traced passes, so both rates see the same host conditions.
struct PassLoop {
  std::vector<double> untraced_rates;  ///< Tasks per second, per pass.
  std::vector<double> traced_rates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference = 0;
  std::uint64_t tasks_per_pass = 0;

  void run(const RunOptions& opt,
           const std::function<PassResult(int index, bool traced)>& pass);

  /// Counts a pass run outside the loop (e.g. with metrics on), failing
  /// its tasks if its digest differs from the reference.
  void gate_extra_pass(std::uint64_t tasks, std::uint64_t digest) {
    attempted += tasks;
    if (digest != reference) failed += tasks;
  }

  /// Applies the golden check to the reference digest.
  void check_golden(const RunOptions& opt);
};

/// Appends the end-to-end metrics every workload reports.
void add_end_to_end(Outcome& out, const PassLoop& loop,
                    const std::vector<double>& setup_seconds,
                    const FlexFetchTotals& ff);

}  // namespace perfbench
