// Parallel sweep engine for the paper's evaluation grids.
//
// The whole Section 3.3 evaluation is a grid of independent trace-driven
// simulations: (scenario, policy, WNIC parameters) cells. Each cell
// constructs its own Simulator and policy from a shared *read-only*
// ScenarioBundle, so cells can run concurrently on a thread pool without
// any synchronisation beyond the task queue.
//
// Thread-safety contract: run_sweep may read each ScenarioBundle from many
// threads at once, so bundles must not be mutated for the duration of the
// call (they are only read through const references; ScenarioBundle has no
// mutable members or lazily-populated caches, and every RNG in the stack is
// an explicitly seeded, per-simulator instance — see DESIGN.md). A bundle's
// programs share one immutable compiled program set and their trace
// records by shared_ptr<const ...>; each cell's Simulator holds a reference
// to the set, so workers change reference counts and nothing else.
//
// Determinism guarantee: results are returned in grid (submission) order
// and each cell's SimResult is bit-identical whether the grid runs on one
// worker or many — scheduling affects only wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/results.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::sim {

/// One cell of an evaluation grid. `scenario` must outlive the sweep call.
struct SweepCell {
  const workloads::ScenarioBundle* scenario = nullptr;
  /// Policy factory name (see policies::make_policy).
  std::string policy;
  device::WnicParams wnic;
  /// Base simulator configuration; its `wnic` member is replaced by the
  /// cell's `wnic` above.
  SimConfig config;
  /// Maximum tolerable performance loss rate handed to the policy factory
  /// (FlexFetch variants and Oracle; ignored by the fixed policies).
  double loss_rate = 0.25;
};

struct SweepOptions {
  /// Worker count. <= 0 resolves via the FF_JOBS environment variable,
  /// falling back to hardware_concurrency(); 1 runs inline on the calling
  /// thread (the serial baseline).
  int jobs = 0;
};

/// Resolves an effective worker count: `requested` if positive, else
/// FF_JOBS if set, else hardware concurrency. A set FF_JOBS must be a
/// whole positive int; anything else throws ConfigError.
int resolve_jobs(int requested);

/// Runs one cell: builds the policy and a fresh Simulator, returns the
/// result. This is the unit of work the engine fans out.
SimResult run_cell(const SweepCell& cell);

/// Runs every cell and returns results in grid order (results[i] is
/// cells[i]): run_sweep_streaming with a sink that collects every result.
/// Cells fan out across resolve_jobs(options.jobs) workers; the first cell
/// failure is rethrown after in-flight cells finish.
std::vector<SimResult> run_sweep(const std::vector<SweepCell>& cells,
                                 const SweepOptions& options = {});

/// Cartesian-grid helper: one cell per (scenario, policy, wnic), wnics
/// innermost — the row-major order the figure tables print in.
std::vector<SweepCell> make_grid(
    const std::vector<const workloads::ScenarioBundle*>& scenarios,
    const std::vector<std::string>& policies,
    const std::vector<device::WnicParams>& wnics, const SimConfig& base = {});

/// Streaming per-cell delivery: called once per cell, in strict grid
/// order (index 0, 1, 2...), with the result moved in so the engine can
/// release it immediately — aggregate consumers never hold more than a
/// bounded window of SimResults in memory.
using CellSink =
    std::function<void(std::size_t index, const SweepCell& cell,
                       SimResult&& result)>;

/// Runs every cell like run_sweep, but hands each result to `sink` as
/// soon as it (and all its predecessors) completed, instead of
/// accumulating a results vector. Workers stay at most a bounded reorder
/// window ahead of the in-order emission point, so peak memory is
/// O(jobs), not O(cells). The sink is invoked serially (never
/// concurrently with itself) and sees bit-identical results in identical
/// order whatever the worker count. The first cell failure is rethrown
/// after in-flight cells finish; cells after a failed one are not
/// delivered.
void run_sweep_streaming(const std::vector<SweepCell>& cells,
                         const SweepOptions& options, const CellSink& sink);

/// Streaming (Welford) mean/variance accumulator with exact merge — the
/// scalar counterpart of telemetry::Histogram for sweep aggregation.
class RunningStat {
 public:
  void add(double x);
  /// Chan et al. parallel combination: merging partials is exact in the
  /// same sense as sequential accumulation (no second pass over data).
  void merge(const RunningStat& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (M2 / n).
  double variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Raw second central moment (M2), exposed — with from_raw below — so
  /// checkpoints can round-trip a partial exactly (fleet shard summaries
  /// must merge to bit-identical aggregates after a save/load cycle).
  double m2() const { return m2_; }

  /// Reconstructs a stat from its serialized raw fields. The inverse of
  /// reading (count, mean, m2, min, max): feeding the values back yields
  /// a stat whose merge behaviour is bit-identical to the original.
  static RunningStat from_raw(std::uint64_t n, double mean, double m2,
                              double min, double max) {
    RunningStat s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Aggregate over one stratum of a sweep (one scenario x policy pair):
/// running stats over the headline scalars plus the merged metrics
/// registry (counters add, histograms merge bucket-wise).
struct StratumAggregate {
  std::uint64_t cells = 0;
  RunningStat energy_j;
  RunningStat disk_energy_j;
  RunningStat wnic_energy_j;
  RunningStat makespan_s;
  RunningStat io_time_s;
  telemetry::MetricsRegistry metrics;

  void add(const SimResult& result);

  /// Folds another partial in: Chan-merge on every stat, metric-kind-wise
  /// merge on the registry. The fleet merge contract (see
  /// src/fleet/runner.hpp) is built on this being a pure function of the
  /// two operands — merging the same partials in the same order always
  /// reproduces the same bits.
  void merge(const StratumAggregate& other);
};

/// Upper edge of the first histogram bucket whose cumulative count reaches
/// q * count — a conservative (over-estimating by at most one power of
/// two) quantile. q <= 0 returns the first populated bucket's edge; an
/// empty histogram has no quantiles and returns 0.0.
double histogram_quantile(const telemetry::Histogram& h, double q);

/// Folds streamed cell results into per-stratum aggregates. Feed it from
/// a CellSink: strata keys are "scenario/policy", kept sorted, and since
/// the sink runs in grid order the aggregate is deterministic and
/// identical for any worker count.
class SweepAggregator {
 public:
  void add(const SweepCell& cell, const SimResult& result);

  /// Folds a whole partial aggregator in, stratum by stratum (new keys
  /// are inserted, existing ones Chan-merged). This is the shard-merge
  /// step of the fleet runner: parent folds worker partials in a fixed
  /// (block-index) order, so the result is independent of which process
  /// computed which partial and of completion order.
  void merge(const SweepAggregator& other);

  /// Checkpoint-restore: inserts a reconstructed stratum verbatim. The
  /// key must not already exist (ConfigError otherwise). Unlike merge, no
  /// arithmetic touches the partial — counters merged into a default-zero
  /// stratum would go through `0.0 + v`, which is not the identity for
  /// every double — so a parsed checkpoint block is bit-identical to the
  /// aggregator that was written.
  void restore_stratum(std::string key, StratumAggregate partial);

  std::uint64_t cells_seen() const { return cells_seen_; }
  const std::map<std::string, StratumAggregate>& strata() const {
    return strata_;
  }

 private:
  std::uint64_t cells_seen_ = 0;
  std::map<std::string, StratumAggregate> strata_;
};

/// Order-sensitive FNV-1a fold of a cell's headline scalars (policy name,
/// makespan, I/O time, energies, syscall/request/byte counts) as bit
/// patterns, not rounded text. Two passes over the same grid produce equal
/// digests iff every cell result is bit-identical, so one 64-bit value pins
/// a whole grid's results.
std::uint64_t fold_result_digest(std::uint64_t digest, const SimResult& result);

/// Seed for fold_result_digest chains (FNV-1a offset basis).
inline constexpr std::uint64_t kResultDigestSeed = 0xcbf29ce484222325ULL;

/// Emits the `"strata": [...]` key/value pair of an aggregate record at
/// the given indent depth (no trailing comma or newline): per stratum, the
/// mean/stddev/min/max of the headline scalars, the merged scalar metrics
/// and bucket-quantile summaries of the merged histograms. BENCH_fleet.json
/// embeds it.
void write_strata_json(std::ostream& os, const SweepAggregator& agg,
                       int indent);

}  // namespace flexfetch::sim
