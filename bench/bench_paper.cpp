// bench_paper: Tables 1-3 and Figures 1-5 of the paper's evaluation
// (Section 3.3) and nine ablations beyond it, in one program.
//
//   ./build/bench/bench_paper <name> [flags]
//
// `kEntries` at the bottom lists each name with the harness flags it
// honours; `all` runs every entry in that order. An entry prints its tables,
// then registers its google-benchmark timings, which run once every selected
// entry has printed (`--benchmark_filter=none` skips them). A harness flag
// the selected entry does not honour is rejected with the usage listing, so
// a flag is never silently ignored. `bench_paper all --benchmark_filter=none`
// prints bench/paper_tables.txt byte for byte, as `ctest -L golden` checks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/flexfetch.hpp"
#include "core/stage.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "harness.hpp"
#include "policies/factory.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"
#include "workloads/generators.hpp"

using namespace flexfetch;

namespace {

// Regenerates Tables 1-3 of the paper: the device parameter tables and the
// trace inventory, plus derived quantities (disk break-even time) that the
// model exposes. Also registers google-benchmark timings of the substrate
// primitives those tables parameterize.
namespace tables {

void print_table1() {
  const auto p = device::DiskParams::hitachi_dk23da();
  std::printf("=== Table 1: Hitachi DK23DA hard disk parameters ===\n");
  std::printf("  P_active    Active Power      %.2f W\n",
              p.active_power.value());
  std::printf("  P_idle      Idle Power        %.2f W\n", p.idle_power.value());
  std::printf("  P_standby   Standby Power     %.2f W\n",
              p.standby_power.value());
  std::printf("  E_spinup    Spin up Energy    %.2f J\n",
              p.spin_up_energy.value());
  std::printf("  E_spindown  Spin down Energy  %.2f J\n",
              p.spin_down_energy.value());
  std::printf("  T_spinup    Spin up Time      %.2f s\n",
              p.spin_up_time.value());
  std::printf("  T_spindown  Spin down Time    %.2f s\n",
              p.spin_down_time.value());
  std::printf("  bandwidth %.0f MB/s, avg seek %.0f ms, avg rotation %.0f ms, "
              "timeout %.0f s\n",
              p.bandwidth.value() / 1e6, p.avg_seek_time.value() * 1e3,
              p.avg_rotation_time.value() * 1e3,
              p.spin_down_timeout.value());
  std::printf("  derived break-even time: %.2f s\n\n",
              p.break_even_time().value());
}

void print_table2() {
  const auto p = device::WnicParams::cisco_aironet350();
  std::printf("=== Table 2: Cisco Aironet 350 WNIC parameters ===\n");
  std::printf("  PSM (idle/recv/send)       %.2f W / %.2f W / %.2f W\n",
              p.psm_idle_power.value(), p.psm_recv_power.value(),
              p.psm_send_power.value());
  std::printf("  CAM (idle/recv/send)       %.2f W / %.2f W / %.2f W\n",
              p.cam_idle_power.value(), p.cam_recv_power.value(),
              p.cam_send_power.value());
  std::printf("  CAM->PSM (delay/energy)    %.2f s / %.2f J\n",
              p.cam_to_psm_delay.value(), p.cam_to_psm_energy.value());
  std::printf("  PSM->CAM (delay/energy)    %.2f s / %.2f J\n",
              p.psm_to_cam_delay.value(), p.psm_to_cam_energy.value());
  std::printf("  PSM timeout %.1f s, bandwidth %.1f Mbps, latency %.1f ms\n\n",
              p.psm_timeout.value(), p.bandwidth.value() * 8.0 / 1e6,
              p.latency.value() * 1e3);
}

void print_table3() {
  std::printf("=== Table 3: trace inventory (synthetic reproductions) ===\n");
  std::printf("  %-12s %-24s %8s %10s %10s\n", "Name", "Description", "#File",
              "Size(MB)", "Span");
  struct Row {
    const char* name;
    const char* description;
    trace::Trace trace;
  };
  const Row rows[] = {
      {"Thunderbird", "an email client", workloads::thunderbird_trace()},
      {"make", "building Linux kernel", workloads::make_trace()},
      {"grep", "a text search tool", workloads::grep_trace()},
      {"xmms", "a mp3 player", workloads::xmms_trace()},
      {"mplayer", "a movie player", workloads::mplayer_trace()},
      {"Acroread", "a PDF file reader", workloads::acroread_trace()},
  };
  for (const auto& row : rows) {
    const auto s = row.trace.stats();
    std::printf("  %-12s %-24s %8zu %10.1f %10s\n", row.name, row.description,
                s.distinct_files, s.footprint.as_double() / 1e6,
                format_seconds(s.duration).c_str());
  }
  std::printf("\n");
}

// --- google-benchmark timings of the primitives the tables parameterize ---

void BM_DiskService(benchmark::State& state) {
  device::Disk disk;
  Seconds t = Seconds{0.0};
  const auto size = Bytes{static_cast<std::uint64_t>(state.range(0))};
  Bytes lba = Bytes{0};
  for (auto _ : state) {
    const auto res =
        disk.service(t, device::DeviceRequest{.lba = lba, .size = size});
    benchmark::DoNotOptimize(res.energy);
    t = res.completion + Seconds{0.001};
    lba += size + Bytes{1};  // Non-sequential: exercise positioning.
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WnicService(benchmark::State& state) {
  device::Wnic wnic;
  Seconds t = Seconds{0.0};
  const auto size = Bytes{static_cast<std::uint64_t>(state.range(0))};
  for (auto _ : state) {
    const auto res = wnic.service(t, device::DeviceRequest{.size = size});
    benchmark::DoNotOptimize(res.energy);
    t = res.completion + Seconds{0.001};
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto t = workloads::grep_trace(workloads::GrepParams{}, seed, seed);
    benchmark::DoNotOptimize(t.size());
    ++seed;
  }
}

void entry(const bench::SweepSpec&) {
  print_table1();
  print_table2();
  print_table3();
  benchmark::RegisterBenchmark("BM_DiskService", BM_DiskService)->Arg(4096)->Arg(131072);
  benchmark::RegisterBenchmark("BM_WnicService", BM_WnicService)->Arg(4096)->Arg(131072);
  benchmark::RegisterBenchmark("BM_TraceGeneration", BM_TraceGeneration);
}

}  // namespace tables

// Figures 1-5 of Section 3.3, each captioned "<scenario>: Energy
// consumptions with various WNIC bandwidths and latencies". An entry prints
// the figure's (a) latency and (b) bandwidth panels, then times one
// FlexFetch run of its scenario at the default WNIC point.
//
// Figure 1 — grep+make (Section 3.3.1, the programming scenario).
// Expected shape (paper): at low latency BlueFS > Disk-only > WNIC-only >
// FlexFetch; WNIC-only rises steeply with latency and crosses Disk-only;
// FlexFetch converges towards Disk-only at high latency.
//
// Figure 2 — mplayer (Section 3.3.2, the media streaming scenario).
// Expected shape (paper): FlexFetch tracks WNIC-only; BlueFS wastes energy
// on both devices; in the bandwidth sweep FlexFetch switches to the disk
// below ~2 Mbps and saves substantially versus WNIC-only there.
//
// Figure 3 — Thunderbird (Section 3.3.3, the email search scenario).
// Expected shape (paper): Disk-only is expensive (sparse small email reads
// thrash the spin-down timer); WNIC-only crosses above Disk-only past
// ~15 ms latency; FlexFetch beats BlueFS by ~17% and both adaptive schemes
// are insensitive to bandwidth.
//
// Figure 4 — grep+make / xmms (Section 3.3.4, the forced disk spin-up
// scenario). xmms plays MP3s stored only on the local disk, keeping the
// disk spinning while the profiled programming workload runs.
// Expected shape (paper): FlexFetch observes the forced spin-up and rides
// the disk, substantially beating FlexFetch-static at low latencies; the
// two curves merge as rising latency pushes both onto the disk.
//
// Figure 5 — Acroread (Section 3.3.5, the invalid-profile scenario). The
// profile was recorded from a run over 2 MB PDFs at 25 s intervals; the
// current run scans 20 MB PDFs every 10 s.
// Expected shape (paper): FlexFetch pays one evaluation stage to discover
// the stale profile, then switches to the disk — far better than
// FlexFetch-static, modestly worse than BlueFS.
namespace figures {

using Builder = workloads::ScenarioBundle (*)(std::uint64_t);

struct Figure {
  const char* label;
  Builder scenario;
  std::vector<std::string> policies;
  const char* timing;  // Name of the google-benchmark timing.
};

const std::vector<std::string> kPolicies = {"flexfetch", "bluefs", "disk-only",
                                            "wnic-only"};
// Figures 4 and 5 add FlexFetch-static, FlexFetch without run-time adaptation.
const std::vector<std::string> kWithStatic = {"flexfetch", "flexfetch-static", "bluefs",
                                              "disk-only", "wnic-only"};

const Figure kFigures[] = {
    {"Figure 1 (grep+make)", workloads::scenario_grep_make, kPolicies,
     "BM_SimulateGrepMakeFlexFetch"},
    {"Figure 2 (mplayer)", workloads::scenario_mplayer, kPolicies,
     "BM_SimulateMplayerFlexFetch"},
    {"Figure 3 (Thunderbird)", workloads::scenario_thunderbird, kPolicies,
     "BM_SimulateThunderbirdFlexFetch"},
    {"Figure 4 (grep+make / xmms)", workloads::scenario_forced_spinup, kWithStatic,
     "BM_SimulateForcedSpinupFlexFetch"},
    {"Figure 5 (Acroread, stale profile)", workloads::scenario_stale_acroread,
     kWithStatic, "BM_SimulateAcroreadFlexFetch"},
};

void BM_SimulateFlexFetch(benchmark::State& state, Builder build) {
  const auto scenario = build(1);
  for (auto _ : state) {
    const auto r = bench::run_once(scenario, "flexfetch",
                                   device::WnicParams::cisco_aironet350());
    benchmark::DoNotOptimize(r.total_energy());
  }
}

template <std::size_t I>
void entry(const bench::SweepSpec& spec) {
  const Figure& figure = kFigures[I];
  bench::SweepSpec figure_spec = spec;
  figure_spec.policies = figure.policies;
  bench::print_figure(figure.label, figure.scenario(1), figure_spec);
  benchmark::RegisterBenchmark(figure.timing, BM_SimulateFlexFetch, figure.scenario)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace figures

// Ablation A — the user-specified maximum tolerable performance loss rate
// (Section 2.2). The paper fixes it at 25%; this bench sweeps it to show
// the energy/performance trade-off it controls.
namespace lossrate {

void run_lossrate_sweep(const workloads::ScenarioBundle& scenario, int jobs) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-12s %14s %14s %14s %14s\n", "loss_rate", "energy[J]",
              "makespan[s]", "disk[J]", "wnic[J]");
  const std::vector<double> rates = {0.0, 0.05, 0.10, 0.25, 0.50, 1.0, 4.0};
  std::vector<sim::SweepCell> cells;
  for (const double rate : rates) {
    sim::SweepCell cell;
    cell.scenario = &scenario;
    cell.policy = "flexfetch";
    cell.loss_rate = rate;
    cell.axis = "loss_rate";
    cell.axis_value = rate;
    cells.push_back(std::move(cell));
  }
  const auto results = sim::run_sweep(cells, {.jobs = jobs});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-12.2f %14.1f %14.1f %14.1f %14.1f\n", rates[i],
                r.total_energy().value(), r.makespan.value(), r.disk_energy().value(),
                r.wnic_energy().value());
  }
  std::printf("\n");
}

void BM_LossRateDecision(benchmark::State& state) {
  const core::Estimate disk{.time = Seconds{10.0}, .energy = Joules{100.0}};
  const core::Estimate net{.time = Seconds{11.0}, .energy = Joules{60.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decide_source(disk, net, 0.25));
  }
}

void entry(const bench::SweepSpec& spec) {
  std::printf("=== Ablation A: maximum tolerable performance loss rate ===\n");
  std::printf("(paper uses 25%%; rule 3 of Section 2.2)\n\n");
  run_lossrate_sweep(workloads::scenario_grep_make(1), spec.jobs);
  run_lossrate_sweep(workloads::scenario_mplayer(1), spec.jobs);
  benchmark::RegisterBenchmark("BM_LossRateDecision", BM_LossRateDecision);
}

}  // namespace lossrate

// Ablation B — the four run-time adaptation mechanisms of Section 2.3,
// disabled one at a time on the two scenarios that stress them: the forced
// disk spin-up (Figure 4) and the stale profile (Figure 5).
namespace adaptation {

struct Variant {
  const char* label;
  core::FlexFetchConfig config;
};

std::vector<Variant> variants() {
  const auto without = [](bool core::FlexFetchConfig::*mechanism) {
    core::FlexFetchConfig c;
    c.*mechanism = false;
    return c;
  };
  return {{"full", core::FlexFetchConfig{}},
          {"-splice", without(&core::FlexFetchConfig::adapt_splice)},
          {"-stage-audit", without(&core::FlexFetchConfig::adapt_stage_audit)},
          {"-cache-filter", without(&core::FlexFetchConfig::adapt_cache_filter)},
          {"-free-rider", without(&core::FlexFetchConfig::adapt_free_rider)},
          {"none (static)", core::FlexFetchConfig::static_variant()}};
}

void run_scenario(const workloads::ScenarioBundle& scenario) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-16s %12s %12s %9s %9s %9s %9s\n", "variant", "energy[J]",
              "makespan", "splices", "audits", "freerides", "filtered");
  for (const auto& v : variants()) {
    core::FlexFetchPolicy policy(v.config, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, policy);
    const auto r = simulator.run();
    const auto& s = policy.stats();
    std::printf("%-16s %12.1f %12.1f %9llu %9llu %9llu %9llu\n", v.label,
                r.total_energy().value(), r.makespan.value(),
                static_cast<unsigned long long>(s.splice_switches),
                static_cast<unsigned long long>(s.audit_overrides),
                static_cast<unsigned long long>(s.free_rider_redirects),
                static_cast<unsigned long long>(s.cache_filtered_requests));
  }
  std::printf("\n");
}

void BM_AdaptiveFlexFetchForcedSpinup(benchmark::State& state) {
  const auto scenario = workloads::scenario_forced_spinup(1);
  for (auto _ : state) {
    core::FlexFetchPolicy policy(core::FlexFetchConfig{}, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, policy);
    benchmark::DoNotOptimize(simulator.run().total_energy());
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation B: Section 2.3 adaptation mechanisms ===\n\n");
  run_scenario(workloads::scenario_forced_spinup(1));
  run_scenario(workloads::scenario_stale_acroread(1));
  run_scenario(workloads::scenario_thunderbird(1));
  benchmark::RegisterBenchmark("BM_AdaptiveFlexFetchForcedSpinup",
                               BM_AdaptiveFlexFetchForcedSpinup)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace adaptation

// Ablation C — the evaluation-stage length (Section 2.2). The paper uses
// 40 s: long enough for stable estimates, short enough for timely
// correction. This bench sweeps the threshold.
namespace stage {

void run_sweep(const workloads::ScenarioBundle& scenario) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-14s %10s %12s %12s %9s %9s\n", "stage_len[s]", "stages",
              "energy[J]", "makespan[s]", "audits", "splices");
  for (const double len : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    core::FlexFetchConfig config;
    config.stage_min_length = Seconds{len};
    core::FlexFetchPolicy policy(config, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, policy);
    const auto r = simulator.run();
    std::printf("%-14.0f %10llu %12.1f %12.1f %9llu %9llu\n", len,
                static_cast<unsigned long long>(policy.stats().stages_entered),
                r.total_energy().value(), r.makespan.value(),
                static_cast<unsigned long long>(policy.stats().audit_overrides),
                static_cast<unsigned long long>(policy.stats().splice_switches));
  }
  std::printf("\n");
}

void BM_StageSegmentation(benchmark::State& state) {
  const auto scenario = workloads::scenario_grep_make(1);
  const auto merged =
      core::Profile::merge(scenario.profiles, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segment_stages(merged, Seconds{40.0}).size());
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation C: evaluation-stage length ===\n");
  std::printf("(paper uses 40 s)\n\n");
  run_sweep(workloads::scenario_grep_make(1));
  run_sweep(workloads::scenario_stale_acroread(1));
  benchmark::RegisterBenchmark("BM_StageSegmentation", BM_StageSegmentation);
}

}  // namespace stage

// Ablation D — how close does FlexFetch, working from a one-run-old
// profile, get to an Oracle that sees the exact future burst structure?
// Reported for every Section 3.3 scenario alongside the fixed policies.
namespace oracle {

void run_scenarios(int jobs) {
  std::printf("%-24s %12s %12s %12s %12s %10s\n", "scenario", "FlexFetch",
              "Oracle", "Disk-only", "WNIC-only", "FF/Oracle");
  const auto wnic = device::WnicParams::cisco_aironet350();
  const auto scenarios = workloads::all_scenarios(1);
  std::vector<const workloads::ScenarioBundle*> refs;
  for (const auto& s : scenarios) refs.push_back(&s);
  const auto cells = sim::make_grid(
      refs, {"flexfetch", "oracle", "disk-only", "wnic-only"}, {wnic});
  const auto results = sim::run_sweep(cells, {.jobs = jobs});
  for (std::size_t i = 0; i < results.size(); i += 4) {
    const double ff = results[i].total_energy().value();
    const double oracle = results[i + 1].total_energy().value();
    std::printf("%-24s %12.1f %12.1f %12.1f %12.1f %10.3f\n",
                cells[i].scenario->name.c_str(), ff, oracle,
                results[i + 2].total_energy().value(), results[i + 3].total_energy().value(),
                ff / oracle);
  }
  std::printf("\n");
}

void BM_OracleGrepMake(benchmark::State& state) {
  const auto scenario = workloads::scenario_grep_make(1);
  for (auto _ : state) {
    const auto r = bench::run_once(scenario, "oracle",
                                   device::WnicParams::cisco_aironet350());
    benchmark::DoNotOptimize(r.total_energy());
  }
}

void entry(const bench::SweepSpec& spec) {
  std::printf("=== Ablation D: FlexFetch vs clairvoyant Oracle ===\n\n");
  run_scenarios(spec.jobs);
  benchmark::RegisterBenchmark("BM_OracleGrepMake", BM_OracleGrepMake)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace oracle

// Ablation E — the C-SCAN I/O scheduler vs FIFO dispatch, under the
// distance-dependent seek model. The paper's simulator "emulates ... the
// C-SCAN I/O request scheduling mechanism" (Section 3.1); this bench shows
// what the elevator buys on a seek-heavy workload: write-back batches of
// pages dirtied across many scattered files.
namespace cscan {

/// Scatter-writer: dirties pages across many files in shuffled order, then
/// idles so the background flusher writes everything back in one batch.
trace::Trace scatter_write_trace(std::size_t files, std::uint64_t seed) {
  Rng rng(seed);
  trace::TraceBuilder b("scatter");
  b.process(90, 90);
  std::vector<trace::Inode> order(files);
  for (std::size_t i = 0; i < files; ++i) order[i] = 50'000 + i;
  for (std::size_t i = files; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  for (const auto ino : order) {
    b.write(ino, Bytes{0}, 8 * kKiB);
    b.think(Seconds{0.002});
  }
  b.think(Seconds{45.0});          // Let the flusher drain the dirty set.
  b.read(99'999, Bytes{0}, Bytes{4096});  // Final marker read.
  return b.build();
}

sim::SimResult run(bool use_cscan, std::size_t files) {
  sim::SimConfig config;
  config.disk.seek_model = device::DiskParams::SeekModel::kDistance;
  config.use_cscan = use_cscan;
  policies::DiskOnlyPolicy policy;
  return sim::simulate(config, scatter_write_trace(files, 7), policy);
}

void print_comparison() {
  std::printf("%-8s %12s %12s %14s %14s %10s\n", "files", "order",
              "energy[J]", "seek-time[s]", "io-time[s]", "merges");
  for (const std::size_t files : {200u, 800u, 2000u}) {
    for (const bool cscan : {false, true}) {
      const auto r = run(cscan, files);
      std::printf("%-8zu %12s %12.1f %14.3f %14.3f %10llu\n", files,
                  cscan ? "C-SCAN" : "FIFO", r.total_energy().value(),
                  r.disk_counters.seek_time.value(), r.io_time.value(),
                  static_cast<unsigned long long>(r.scheduler_stats.merged));
    }
  }
  std::printf("\n");
}

void BM_ScatterFlushCScan(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(true, 800).total_energy());
  }
}

void BM_ScatterFlushFifo(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(false, 800).total_energy());
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation E: C-SCAN elevator vs FIFO dispatch ===\n");
  std::printf("(distance-dependent seek model; scattered write-back batch)\n\n");
  print_comparison();
  benchmark::RegisterBenchmark("BM_ScatterFlushCScan", BM_ScatterFlushCScan)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_ScatterFlushFifo", BM_ScatterFlushFifo)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace cscan

// Ablation F — the cost of replica synchronization, which the paper's
// evaluation assumes away ("data sets ... are available on both local hard
// disk and remote server and synced", Section 3.1; Section 5 defers the
// study). With the hoard/sync substrate enabled, local writes must be
// shipped to the server over the WNIC: this bench quantifies the energy
// overhead across sync intervals on the write-heavy programming workload.
namespace sync {

sim::SimResult run(const workloads::ScenarioBundle& scenario,
                   const std::string& policy_name, double sync_interval) {
  sim::SimConfig config;
  if (sync_interval > 0) {
    config.sync = hoard::SyncConfig{.interval = Seconds{sync_interval}};
  }
  auto policy = policies::make_policy(policy_name, scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  return simulator.run();
}

void print_sweep(const workloads::ScenarioBundle& scenario,
                 const std::string& policy_name) {
  std::printf("--- %s under %s ---\n", scenario.name.c_str(),
              policy_name.c_str());
  std::printf("%-14s %12s %12s %12s %10s %12s\n", "interval[s]", "energy[J]",
              "overhead[%]", "sync[MB]", "batches", "makespan[s]");
  const double base = run(scenario, policy_name, 0).total_energy().value();
  std::printf("%-14s %12.1f %12s %12s %10s %12s\n", "off", base, "-", "-",
              "-", "-");
  for (const double interval : {30.0, 120.0, 600.0}) {
    const auto r = run(scenario, policy_name, interval);
    std::printf("%-14.0f %12.1f %12.1f %12.2f %10llu %12.1f\n", interval,
                r.total_energy().value(),
                (r.total_energy().value() / base - 1.0) * 100.0,
                r.sync_bytes.as_double() / 1e6,
                static_cast<unsigned long long>(r.sync_batches),
                r.makespan.value());
  }
  std::printf("\n");
}

void BM_GrepMakeWithSync(benchmark::State& state) {
  const auto scenario = workloads::scenario_grep_make(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run(scenario, "flexfetch", 120.0).total_energy());
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation F: replica synchronization overhead ===\n\n");
  print_sweep(workloads::scenario_grep_make(1), "flexfetch");
  print_sweep(workloads::scenario_grep_make(1), "disk-only");
  benchmark::RegisterBenchmark("BM_GrepMakeWithSync", BM_GrepMakeWithSync)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace sync

// Ablation G — the disk spin-down timeout (the paper's Section 4 related
// work: fixed thresholds [6] vs adaptive ones [7]). Swept on the two
// workloads at the opposite ends of the idle-gap spectrum: Thunderbird's
// email phase (~22 s gaps, straddling the default) and mplayer's 40 s
// refills, under Disk-only and under FlexFetch.
namespace timeout {

sim::SimResult run(const workloads::ScenarioBundle& scenario,
                   const std::string& policy_name, double timeout,
                   bool adaptive) {
  sim::SimConfig config;
  if (timeout > 0) config.disk.spin_down_timeout = Seconds{timeout};
  if (adaptive) config.adaptive_timeout.emplace();
  auto policy = policies::make_policy(policy_name, scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  return simulator.run();
}

void sweep(const workloads::ScenarioBundle& scenario,
           const std::string& policy_name) {
  std::printf("--- %s under %s ---\n", scenario.name.c_str(),
              policy_name.c_str());
  std::printf("%-14s %12s %10s %12s\n", "timeout[s]", "energy[J]", "spinups",
              "makespan[s]");
  for (const double timeout : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    const auto r = run(scenario, policy_name, timeout, false);
    std::printf("%-14.0f %12.1f %10llu %12.1f\n", timeout, r.total_energy().value(),
                static_cast<unsigned long long>(r.disk_counters.spin_ups),
                r.makespan.value());
  }
  const auto r = run(scenario, policy_name, 0, true);
  std::printf("%-14s %12.1f %10llu %12.1f\n", "adaptive", r.total_energy().value(),
              static_cast<unsigned long long>(r.disk_counters.spin_ups),
              r.makespan.value());
  std::printf("\n");
}

void BM_AdaptiveTimeoutThunderbird(benchmark::State& state) {
  const auto scenario = workloads::scenario_thunderbird(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run(scenario, "disk-only", 0, true).total_energy());
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation G: disk spin-down timeout (fixed vs adaptive) ===\n\n");
  sweep(workloads::scenario_thunderbird(1), "disk-only");
  sweep(workloads::scenario_mplayer(1), "disk-only");
  sweep(workloads::scenario_thunderbird(1), "flexfetch");
  benchmark::RegisterBenchmark("BM_AdaptiveTimeoutThunderbird",
                               BM_AdaptiveTimeoutThunderbird)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace timeout

// Ablation H — the scheme's own overhead, the question the paper's
// Section 5 defers ("time, space, and energy overhead of applying the
// scheme"). Every estimator replay, shadow replay and tracked syscall is
// counted and charged a configurable CPU cost; the bench compares the
// scheme's spend against the I/O energy it saves over the better fixed
// policy.
namespace overhead {

void report() {
  std::printf("%-24s %10s %10s %10s %12s %14s %12s\n", "scenario", "est-ops",
              "shadow", "syscalls", "overhead[J]", "saving[J]", "ratio");
  const auto wnic = device::WnicParams::cisco_aironet350();
  for (const auto& scenario : workloads::all_scenarios(1)) {
    core::FlexFetchPolicy ff(core::FlexFetchConfig{}, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, ff);
    const auto r = simulator.run();

    const double disk_e =
        bench::run_once(scenario, "disk-only", wnic).total_energy().value();
    const double net_e =
        bench::run_once(scenario, "wnic-only", wnic).total_energy().value();
    const double saving = std::min(disk_e, net_e) - r.total_energy().value();
    const auto& s = ff.stats();
    const double overhead = ff.overhead_energy().value();
    std::printf("%-24s %10llu %10llu %10llu %12.4f %14.1f %12s\n",
                scenario.name.c_str(),
                static_cast<unsigned long long>(s.estimator_requests_replayed),
                static_cast<unsigned long long>(s.shadow_requests_replayed),
                static_cast<unsigned long long>(s.syscalls_tracked), overhead,
                saving,
                overhead > 0 && saving > 0
                    ? strprintf("1:%.0f", saving / overhead).c_str()
                    : "-");
  }
  std::printf("\n(overhead charged at %.1f uJ per scheme operation — a ~1 us"
              " slice of a 2 W mobile CPU)\n\n",
              core::FlexFetchConfig{}.overhead_per_op.value() * 1e6);
}

void BM_DecisionEvaluation(benchmark::State& state) {
  const auto scenario = workloads::scenario_thunderbird(1);
  const auto merged = core::Profile::merge(scenario.profiles, "bench");
  device::Disk disk;
  device::Wnic wnic;
  os::FileLayout layout(30 * kGiB);
  const auto span = merged.span(0, std::min<std::size_t>(merged.size(), 8));
  for (auto _ : state) {
    const auto d = core::SourceEstimator::estimate_disk(disk, span, Seconds{0.0}, layout);
    const auto n = core::SourceEstimator::estimate_network(wnic, span, Seconds{0.0});
    benchmark::DoNotOptimize(core::decide_source(d, n, 0.25));
  }
}

void entry(const bench::SweepSpec&) {
  std::printf("=== Ablation H: scheme overhead vs energy saved ===\n\n");
  report();
  benchmark::RegisterBenchmark("BM_DecisionEvaluation", BM_DecisionEvaluation);
}

}  // namespace overhead

// Ablation I — battery-adaptive loss rates. The paper fixes the maximum
// tolerable performance loss rate at 25% (Section 2.2); here every decision
// samples it from a curve of the battery state. mplayer and grep+make run
// under the constant 25% ("static", plain `flexfetch`) and three adaptive
// curves, from four initial charges and on wall power, on a pack small
// enough that a low start depletes within the run. The WNIC runs at
// 2 Mb/s, where rule 3's time-loss bound still bites between 0.25 and 0.5;
// at the default 11 Mb/s / 1 ms point every curve ties static.
namespace battery {

const std::pair<const char*, const char*> kCurves[] = {
    {"static", "flexfetch"},
    {"linear", "flexfetch-adaptive:linear"},
    {"step", "flexfetch-adaptive:step@0.2:0.05:0.5"},
    {"horizon-ratio", "flexfetch-adaptive:horizon-ratio@1800:0.05:0.5"},
};
/// Initial charge of each row; a last row runs at full charge on wall power.
constexpr double kFractions[] = {0.05, 0.25, 0.5, 1.0};
constexpr std::size_t kRows = std::size(kFractions) + 1;

void run_scenario(const workloads::ScenarioBundle& scenario, int jobs) {
  std::vector<sim::SweepCell> cells;  // Curve-major: each curve at every row.
  for (const auto& curve : kCurves) {
    for (std::size_t row = 0; row < kRows; ++row) {
      const bool wall = row == std::size(kFractions);
      sim::SweepCell cell;
      cell.scenario = &scenario;
      cell.policy = curve.second;
      cell.config.battery.capacity = Joules{20000.0};
      cell.config.battery.base_drain = Watts{10.0};
      cell.config.battery.initial_fraction = wall ? 1.0 : kFractions[row];
      cell.config.battery.on_wall_power = wall;
      cell.wnic = device::WnicParams{}.with_bandwidth_mbps(2.0);
      cells.push_back(std::move(cell));
    }
  }
  const auto results = sim::run_sweep(cells, {.jobs = jobs});

  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-14s %8s %12s %12s %12s %12s %12s\n", "curve", "battery",
              "energy[J]", "makespan[s]", "io_time[s]", "net[B]", "disk[B]");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t row = i % kRows;
    const std::string charge = row < std::size(kFractions)
                                   ? strprintf("%.0f%%", 100.0 * kFractions[row])
                                   : "wall";
    const auto& r = results[i];
    std::printf("%-14s %8s %12.1f %12.1f %12.2f %12llu %12llu\n",
                kCurves[i / kRows].first, charge.c_str(),
                r.total_energy().value(), r.makespan.value(), r.io_time.value(),
                static_cast<unsigned long long>(r.net_bytes.value()),
                static_cast<unsigned long long>(r.disk_bytes.value()));
  }
  // Headline: each adaptive curve's saving over static at the lowest charge.
  const double static_j = results[0].total_energy().value();
  for (std::size_t c = 1; c < std::size(kCurves); ++c) {
    const double adaptive_j = results[c * kRows].total_energy().value();
    std::printf("low battery (%.0f%%): %s %.1f J vs static %.1f J "
                "(%+.1f%% energy saving)\n",
                100.0 * kFractions[0], kCurves[c].first, adaptive_j, static_j,
                100.0 * (static_j - adaptive_j) / static_j);
  }
  std::printf("\n");
}

void entry(const bench::SweepSpec& spec) {
  std::printf("=== Ablation I: battery-adaptive loss rate ===\n");
  std::printf("(20 kJ pack, 10 W base drain, 2 Mb/s WNIC; "
              "static is the paper's fixed 25%%)\n\n");
  run_scenario(workloads::scenario_mplayer(1), spec.jobs);
  run_scenario(workloads::scenario_grep_make(1), spec.jobs);
}

}  // namespace battery

// The harness flags, as bits of Entry::honours.
constexpr unsigned kJobs = 1;       // --jobs N: sweep worker threads.
constexpr unsigned kFaultSeed = 2;  // --fault-seed S: inject generate_schedule(S).
constexpr unsigned kMetrics = 4;    // --metrics: merged per-policy telemetry.
constexpr unsigned kTraceOut = 8;   // --trace-out FILE: Chrome trace of cell 0.
constexpr unsigned kFigureFlags = kJobs | kFaultSeed | kMetrics | kTraceOut;

struct Entry {
  const char* name;
  unsigned honours;  // The harness flags this entry accepts, as k* bits.
  void (*run)(const bench::SweepSpec& spec);
};

// `all` runs these in order and honours only --jobs, which changes no
// printed number; the other flags apply to the figures alone.
const Entry kEntries[] = {
    {"tables", 0, tables::entry},
    {"fig1", kFigureFlags, figures::entry<0>},
    {"fig2", kFigureFlags, figures::entry<1>},
    {"fig3", kFigureFlags, figures::entry<2>},
    {"fig4", kFigureFlags, figures::entry<3>},
    {"fig5", kFigureFlags, figures::entry<4>},
    {"lossrate", kJobs, lossrate::entry},
    {"adaptation", 0, adaptation::entry},
    {"stage", 0, stage::entry},
    {"oracle", kJobs, oracle::entry},
    {"cscan", 0, cscan::entry},
    {"sync", 0, sync::entry},
    {"timeout", 0, timeout::entry},
    {"overhead", 0, overhead::entry},
    {"battery", kJobs, battery::entry},
};

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(to, "usage: %s <name> [flags]; `%s <name> --help` lists the "
               "flags a name accepts\nnames:", argv0, argv0);
  for (const Entry& e : kEntries) std::fprintf(to, " %s", e.name);
  std::fprintf(to, " all (every name before it, in order)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  const bool all = name == "all";
  const auto entry = std::find_if(std::begin(kEntries), std::end(kEntries),
                                  [&](const Entry& e) { return name == e.name; });
  if (!all && entry == std::end(kEntries)) {
    const bool help = name == "--help" || name == "-h";
    if (!help && !name.empty()) {
      std::fprintf(stderr, "%s: unknown name '%s'\n", argv[0], name.c_str());
    }
    print_usage(help ? stdout : stderr, argv[0]);
    return help ? 0 : 2;
  }
  // Drop the name from argv; the new argv[0] names the entry in flag errors.
  std::string prog = std::string(argv[0]) + " " + name;
  ++argv;
  --argc;
  argv[0] = prog.data();

  bench::SweepSpec spec;
  const unsigned honours = all ? kJobs : entry->honours;
  bench::ParsedFlags flags;
  if (honours & kJobs) flags.add("jobs", &spec.jobs, "N");
  if (honours & kFaultSeed) flags.add("fault-seed", &spec.fault_seed, "S");
  if (honours & kMetrics) flags.add("metrics", &spec.metrics);
  if (honours & kTraceOut) flags.add("trace-out", &spec.trace_out, "FILE");
  flags.parse(argc, argv);

  for (const Entry& e : kEntries) {
    if (all || &e == entry) e.run(spec);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
