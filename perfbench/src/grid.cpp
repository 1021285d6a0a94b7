// grid: the standard 340-cell evaluation grid (5 scenarios x 4 policies
// x 17 WNIC points), fault-free, telemetry off, streamed through the
// sweep engine into an aggregator and a result digest.

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "policies/factory.hpp"
#include "probes.hpp"
#include "sim/sweep.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ff = flexfetch;

namespace {

// The paper's sweep axes (Section 3.3): WNIC latency at 11 Mb/s, then the
// 802.11b rates at 1 ms.
const std::vector<double> kLatenciesMs = {0.0,  1.0,  3.0,  5.0,  7.0,
                                          9.0,  12.0, 15.0, 20.0, 30.0,
                                          50.0, 70.0, 100.0};
const std::vector<double> kBandwidthsMbps = {1.0, 2.0, 5.5, 11.0};

struct GridInputs {
  std::vector<ff::workloads::ScenarioBundle> scenarios;
  std::vector<ff::sim::SweepCell> cells;  ///< Point into `scenarios`.
};

/// Builds the grid with sim::make_grid: per scenario, per policy, the
/// latency points then the bandwidth points.
std::unique_ptr<GridInputs> build_grid(std::uint64_t seed) {
  auto in = std::make_unique<GridInputs>();
  {
    ScopedSpan s("workloads.build", 0);
    in->scenarios = ff::workloads::all_scenarios(seed);
  }
  const auto base = ff::device::WnicParams::cisco_aironet350();
  std::vector<ff::device::WnicParams> wnics;
  for (const double ms : kLatenciesMs) {
    wnics.push_back(base.with_latency(ff::units::ms(ms)));
  }
  for (const double mbps : kBandwidthsMbps) {
    wnics.push_back(base.with_bandwidth_mbps(mbps));
  }
  std::vector<const ff::workloads::ScenarioBundle*> scenarios;
  for (const auto& scenario : in->scenarios) scenarios.push_back(&scenario);
  in->cells = ff::sim::make_grid(
      scenarios, ff::policies::standard_policy_names(), wnics);
  return in;
}

}  // namespace

std::uint64_t grid_inputs_digest(std::uint64_t seed) {
  const auto in = build_grid(seed);
  std::uint64_t h = kFnvSeed;
  for (const auto& b : in->scenarios) h = digest_bundle(h, b);
  for (const auto& c : in->cells) {
    h = fnv1a(h, c.policy);
    h = fnv1a_value(h, c.wnic.bandwidth.value());
    h = fnv1a_value(h, c.wnic.latency.value());
  }
  return h;
}

Outcome run_grid(const RunOptions& opt) {
  std::unique_ptr<GridInputs> in;
  const std::vector<double> setup_s =
      time_setups(in, [&] { return build_grid(opt.seed); }, opt.trace);
  if (opt.trace) time_trace_compile(in->scenarios);
  const auto& cells = in->cells;
  const int jobs = bench_jobs();

  FlexFetchTotals ff_totals;
  TaskCounts counts;  // Of the last traced pass.
  std::vector<double> cell_seconds;  // Per traced pass: sum of cell times.
  PassLoop loop;
  loop.run(opt, [&](int index, bool traced) {
    std::uint64_t digest = ff::sim::kResultDigestSeed;
    ff::sim::SweepAggregator agg;
    if (!traced) {
      ff::sim::run_sweep_streaming(
          cells, {.jobs = jobs},
          [&](std::size_t i, const ff::sim::SweepCell& cell,
              ff::sim::SimResult&& r) {
            if (opt.perturb && index == 1 && i == 0) perturb_result(r);
            if (index == 0 && cell.policy == "flexfetch") ff_totals.add(r);
            digest = ff::sim::fold_result_digest(digest, r);
            agg.add(cell, r);
          });
      return PassResult{cells.size(), digest};
    }
    std::vector<ff::sim::SimResult> results(cells.size());
    std::vector<TaskCounts> slot_counts(cells.size());
    std::vector<double> slot_s(cells.size());
    {
      ff::ThreadPool pool(static_cast<unsigned>(jobs));
      ff::parallel_for(pool, cells.size(), [&](std::size_t i) {
        const auto c0 = Clock::now();
        results[i] = run_traced_cell(cells[i], i, slot_counts[i]);
        slot_s[i] = seconds_between(c0, Clock::now());
      });
    }
    {
      ScopedSpan s("sweep.aggregate", 0);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        digest = ff::sim::fold_result_digest(digest, results[i]);
        agg.add(cells[i], results[i]);
      }
    }
    double busy = 0.0;
    for (const double s : slot_s) busy += s;
    cell_seconds.push_back(busy);
    counts = TaskCounts{};
    for (const auto& c : slot_counts) counts.merge(c);
    return PassResult{cells.size(), digest};
  });

  Outcome out;
  if (!opt.trace) {
    loop.check_golden(opt);
    add_end_to_end(out, loop, setup_s, ff_totals);
  } else {
    // Write-back flushes are only counted by the metrics registry: one
    // extra pass with metrics-only telemetry, gated on the same digest.
    std::vector<ff::sim::SweepCell> metric_cells = cells;
    for (auto& c : metric_cells) c.config.telemetry.enabled = true;
    ff::telemetry::MetricsRegistry merged;
    std::uint64_t digest = ff::sim::kResultDigestSeed;
    const auto t0 = Clock::now();
    ff::sim::run_sweep_streaming(
        metric_cells, {.jobs = jobs},
        [&](std::size_t, const ff::sim::SweepCell&, ff::sim::SimResult&& r) {
          digest = ff::sim::fold_result_digest(digest, r);
          merged.merge(r.metrics);
        });
    const double metrics_pass_s = seconds_between(t0, Clock::now());
    loop.gate_extra_pass(cells.size(), digest);
    loop.check_golden(opt);

    // Layer probes on the FlexFetch cells' inputs (one per scenario and
    // WNIC point; the other policies share the same inputs).
    ProbeTotals probes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& cell = cells[i];
      if (cell.policy != "flexfetch") continue;
      ScopedSpan s("probe", i);
      ff::sim::SimConfig config = cell.config;
      config.wnic = cell.wnic;
      probes.merge(probe_task(cell.scenario->programs, config,
                              cell.scenario->profiles, cell.loss_rate));
    }

    LayerValues v;
    v["workloads.build_ms"] = span_totals("workloads.build").total_s * 1e3;
    v["trace.compile_ms"] = span_totals("trace.compile").total_s * 1e3;
    fill_task_layers(v, counts, probes);
    v["os.writeback.flushes"] = writeback_flushes(merged);
    v["telemetry.overhead_pct"] =
        telemetry_overhead_pct(loop, cells.size(), metrics_pass_s);
    // The cell times come from the traced passes; the wall is that of the
    // untraced run_sweep_streaming passes, so the engine's own scheduling
    // (its bounded reorder window included) sets the denominator.
    const double sweep_wall_s =
        static_cast<double>(cells.size()) / median(loop.untraced_rates);
    v["sweep.busy_frac"] = median(cell_seconds) / (jobs * sweep_wall_s);
    v["sweep.aggregate_us"] = span_mean("sweep.aggregate", 1e6);
    fill_trace_overhead(v, loop);
    emit_layers(out, v);
  }
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  out.digest = loop.reference;
  return out;
}

}  // namespace perfbench
