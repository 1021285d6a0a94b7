// crowd: 16 clients sharing one 3 Mb/s cell and one server (capacity 2,
// one slot reserved for low batteries), crossing {fifo, battery}
// admission with {flexfetch, wnic-only}; each cell is one MultiClientSim,
// which steps its 16 simulators on one thread. The client mix follows
// bench_contention at N = 16: client i replays scenario i mod 5 built
// from seed + i, with a PHY penalty by i mod 4, and client 0 starts at
// 12% battery.
//
// The four cells run side by side on min(nproc, 4) threads. Run one after
// another on a single thread, the rate followed whichever core the thread
// landed on and how busy the shared host was, and spread by up to 25%
// between runs; spread over the cores it spread by about 13%.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "medium/multi_client.hpp"
#include "policies/factory.hpp"
#include "probes.hpp"
#include "sim/sweep.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ff = flexfetch;

namespace {

constexpr int kClients = 16;

struct CrowdCell {
  std::string admission;
  std::string policy;
};

const std::vector<CrowdCell>& crowd_cells() {
  static const std::vector<CrowdCell> cells = {{"fifo", "flexfetch"},
                                               {"fifo", "wnic-only"},
                                               {"battery", "flexfetch"},
                                               {"battery", "wnic-only"}};
  return cells;
}

std::vector<ff::workloads::ScenarioBundle> build_bundles(std::uint64_t seed) {
  using MakeBundle = ff::workloads::ScenarioBundle (*)(std::uint64_t);
  const MakeBundle makers[] = {
      ff::workloads::scenario_grep_make, ff::workloads::scenario_mplayer,
      ff::workloads::scenario_thunderbird, ff::workloads::scenario_forced_spinup,
      ff::workloads::scenario_stale_acroread};
  ScopedSpan s("workloads.build", 0);
  std::vector<ff::workloads::ScenarioBundle> bundles;
  for (int i = 0; i < kClients; ++i) {
    bundles.push_back(makers[i % 5](seed + static_cast<std::uint64_t>(i)));
  }
  return bundles;
}

/// Client i's starting battery: client 0 low, the rest from 0.40 to 1.0.
double initial_battery(int i) {
  if (i == 0) return 0.12;
  return 0.40 + 0.60 * static_cast<double>(i - 1) / (kClients - 2);
}

/// Client i's spec, without its policy.
ff::medium::ClientSpec client_spec(int i,
                                   const ff::workloads::ScenarioBundle& b) {
  ff::medium::ClientSpec spec;
  spec.name = b.name + "#" + std::to_string(i);
  spec.programs = b.programs;
  spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
  spec.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
  spec.battery.initial_fraction = initial_battery(i);
  return spec;
}

ff::medium::MultiClientConfig medium_config(const std::string& admission) {
  ff::medium::MultiClientConfig config;
  config.server.capacity = 2;
  config.server.reserved_slots = 1;
  config.server.low_battery_threshold = 0.30;
  config.server.admission = admission;
  return config;
}

struct MediumCounts {
  std::uint64_t transfers = 0;
  std::uint64_t contended = 0;
  std::uint64_t queue_waits = 0;
};

/// What a pass records besides its digest; null members are not recorded.
struct CrowdSinks {
  /// Traced pass: spans, task counters and medium counters.
  TaskCounts* counts = nullptr;
  MediumCounts* medium = nullptr;
  /// Totals of the FlexFetch cells.
  FlexFetchTotals* ff_totals = nullptr;
  /// Turns metrics-only telemetry on and merges every client's metrics.
  ff::telemetry::MetricsRegistry* metrics = nullptr;
  /// Perturbs the first client result (digest-gate test hook).
  bool perturb = false;
};

/// Runs one cell: a fresh policy per client, one MultiClientSim.
ff::medium::MultiClientResult run_cell(
    const CrowdCell& cell, std::size_t task,
    const std::vector<ff::workloads::ScenarioBundle>& bundles, bool metrics,
    TaskCounts* counts) {
  const bool traced = counts != nullptr;
  std::vector<std::unique_ptr<ff::sim::Policy>> policies;
  std::vector<ff::medium::ClientSpec> specs;
  for (int i = 0; i < kClients; ++i) {
    const auto& b = bundles[static_cast<std::size_t>(i)];
    {
      std::optional<ScopedSpan> s;
      if (traced) s.emplace("policies.make", task);
      policies.push_back(ff::policies::make_policy(cell.policy, b.profiles,
                                                   &b.oracle_future, 0.25));
    }
    auto spec = client_spec(i, b);
    spec.config.telemetry.enabled = metrics;
    spec.policy = policies.back().get();
    specs.push_back(std::move(spec));
  }
  std::optional<ScopedSpan> s;
  if (traced) s.emplace("medium.run", task);
  ff::medium::MultiClientSim sim(medium_config(cell.admission),
                                 std::move(specs));
  auto result = sim.run();
  s.reset();
  if (traced) {
    for (const auto& r : result.clients) counts->add(r);
    for (const auto& p : policies) counts->add(*p);
  }
  return result;
}

}  // namespace

std::uint64_t crowd_inputs_digest(std::uint64_t seed) {
  std::uint64_t h = kFnvSeed;
  const auto bundles = build_bundles(seed);
  for (int i = 0; i < kClients; ++i) {
    const auto& b = bundles[static_cast<std::size_t>(i)];
    h = digest_bundle(h, b);
    const auto spec = client_spec(i, b);
    h = fnv1a_value(h, spec.link_quality);
    h = fnv1a_value(h, spec.battery.initial_fraction);
  }
  return h;
}

Outcome run_crowd(const RunOptions& opt) {
  std::unique_ptr<std::vector<ff::workloads::ScenarioBundle>> built;
  const std::vector<double> setup_s = time_setups(
      built,
      [&] {
        return std::make_unique<std::vector<ff::workloads::ScenarioBundle>>(
            build_bundles(opt.seed));
      },
      opt.trace);
  const auto& bundles = *built;
  if (opt.trace) time_trace_compile(bundles);
  const auto& cells = crowd_cells();
  const int jobs = std::min(bench_jobs(), static_cast<int>(cells.size()));
  const std::uint64_t tasks = cells.size() * kClients;

  // Folds every client result of every cell, in order.
  const auto pass = [&](const CrowdSinks& sinks) {
    const bool traced = sinks.counts != nullptr;
    std::vector<ff::medium::MultiClientResult> results(cells.size());
    std::vector<TaskCounts> cell_counts(cells.size());
    {
      ff::ThreadPool pool(static_cast<unsigned>(jobs));
      ff::parallel_for(pool, cells.size(), [&](std::size_t c) {
        std::optional<ScopedSpan> s;
        if (traced) s.emplace("task", c);
        results[c] = run_cell(cells[c], c, bundles, sinks.metrics != nullptr,
                              traced ? &cell_counts[c] : nullptr);
      });
    }
    std::uint64_t digest = ff::sim::kResultDigestSeed;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      auto& result = results[c];
      if (traced) sinks.counts->merge(cell_counts[c]);
      if (sinks.perturb && c == 0) perturb_result(result.clients[0]);
      for (const auto& r : result.clients) {
        digest = ff::sim::fold_result_digest(digest, r);
        if (sinks.ff_totals != nullptr && cells[c].policy == "flexfetch") {
          sinks.ff_totals->add(r);
        }
        if (sinks.metrics != nullptr) sinks.metrics->merge(r.metrics);
      }
      if (sinks.medium != nullptr) {
        sinks.medium->transfers += result.medium.transfers;
        sinks.medium->contended += result.medium.contended_transfers;
        sinks.medium->queue_waits += result.server.queue_waits;
      }
    }
    return digest;
  };

  FlexFetchTotals ff_totals;
  TaskCounts counts;  // Of the last traced pass.
  MediumCounts medium;
  PassLoop loop;
  loop.run(opt, [&](int index, bool traced) {
    if (!traced) {
      return PassResult{
          tasks, pass({.ff_totals = index == 0 ? &ff_totals : nullptr,
                       .perturb = opt.perturb && index == 1})};
    }
    counts = TaskCounts{};
    medium = MediumCounts{};
    return PassResult{tasks, pass({.counts = &counts, .medium = &medium})};
  });

  Outcome out;
  if (!opt.trace) {
    loop.check_golden(opt);
    add_end_to_end(out, loop, setup_s, ff_totals);
  } else {
    // Write-back flushes come from the metrics registry: one metrics-on
    // pass, gated on the same digest.
    ff::telemetry::MetricsRegistry merged;
    const auto t0 = Clock::now();
    loop.gate_extra_pass(tasks, pass({.metrics = &merged}));
    const double metrics_pass_s = seconds_between(t0, Clock::now());
    loop.check_golden(opt);

    // Probes: each client's inputs at its own link rate; the core stage
    // pricing runs on its profiles as the FlexFetch cells would.
    ProbeTotals probes;
    for (int i = 0; i < kClients; ++i) {
      const auto& b = bundles[static_cast<std::size_t>(i)];
      const auto spec = client_spec(i, b);
      const auto policy =
          ff::policies::make_policy("flexfetch", b.profiles, &b.oracle_future);
      {
        ScopedSpan s("sim.construct", static_cast<std::uint64_t>(i));
        ff::sim::Simulator sim(spec.config, spec.programs, *policy);
      }
      ScopedSpan s("probe", static_cast<std::uint64_t>(i));
      probes.merge(probe_task(spec.programs, spec.config, b.profiles, 0.25));
    }

    LayerValues v;
    v["workloads.build_ms"] = span_totals("workloads.build").total_s * 1e3;
    v["trace.compile_ms"] = span_totals("trace.compile").total_s * 1e3;
    fill_task_layers(v, counts, probes);
    v["os.writeback.flushes"] = writeback_flushes(merged);
    v["telemetry.overhead_pct"] =
        telemetry_overhead_pct(loop, tasks, metrics_pass_s);
    const SpanTotals run = span_totals("medium.run");
    const double passes =
        static_cast<double>(run.count) / static_cast<double>(cells.size());
    v["medium.run_ms"] = span_mean("medium.run", 1e3);
    v["medium.ns_per_syscall"] =
        counts.syscalls > 0
            ? run.total_s * 1e9 / (static_cast<double>(counts.syscalls) * passes)
            : 0.0;
    v["medium.transfers"] = static_cast<double>(medium.transfers);
    v["medium.contended_frac"] =
        medium.transfers > 0 ? static_cast<double>(medium.contended) /
                                   static_cast<double>(medium.transfers)
                             : 0.0;
    v["medium.queue_waits"] = static_cast<double>(medium.queue_waits);
    fill_trace_overhead(v, loop);
    emit_layers(out, v);
  }
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  out.digest = loop.reference;
  return out;
}

}  // namespace perfbench
