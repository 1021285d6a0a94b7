// Golden digests: cross-commit pins of simulated results. Each constant is
// a digest of every simulated number a fixed run produces, so a mismatch
// means some result changed. A speed-only change must leave every constant
// as it is. A change that moves results on purpose replaces the constant
// with the value the failing test prints, and names and explains the change
// in CHANGES.md. The standard-grid, faulted-grid and contention goldens
// each reach their constant from a serial pass and from a 4-thread pass, so
// ctest also pins serial == parallel.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "faults/schedule.hpp"
#include "fleet/catalog.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "medium/multi_client.hpp"
#include "policies/factory.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

/// fold_result_digest over the standard 340-cell grid (StandardGrid below);
/// the same grid, order and digest as perfbench's grid workload at seed 1.
constexpr std::uint64_t kStandardGridDigest = 0x48e4c60c78c1ed36;
/// FNV-1a of fleet::fingerprint for 1,024 default users, telemetry on.
constexpr std::uint64_t kFleetFingerprintDigest = 0xde08c70d8c2eae57;
/// The standard grid under generate_schedule(7), the `--fault-seed 7` run.
constexpr std::uint64_t kFaultedGridDigest = 0xde38a32ef7daf4ec;
/// fold_result_digest over every client of the N=1 and N=4 contention cells.
constexpr std::uint64_t kContentionDigest = 0x20ca8b1d87755871;
/// fold_result_digest over the 40 cells of the battery ablation.
constexpr std::uint64_t kBatteryAblationDigest = 0xd58942158eb639e5;
/// fold_result_digest of one grep run under Disk-only, the run that
/// bench_telemetry times.
constexpr std::uint64_t kGrepDiskOnlyDigest = 0x65c838014433852e;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = sim::kResultDigestSeed;  // The FNV-1a offset basis.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// fold_result_digest over all_scenarios(1) x standard_policy_names() x the
/// paper's WNIC axes (the 13 latencies at 11 Mb/s and 4 bandwidths at 1 ms of
/// bench::SweepSpec), telemetry off, in sim::make_grid order, run on `jobs`
/// workers.
std::uint64_t standard_grid_digest(const sim::SimConfig& base, int jobs) {
  const std::vector<double> latencies_ms = {0.0,  1.0,  3.0,  5.0,  7.0,  9.0, 12.0,
                                            15.0, 20.0, 30.0, 50.0, 70.0, 100.0};
  const std::vector<double> bandwidths_mbps = {1.0, 2.0, 5.5, 11.0};
  const auto wnic = device::WnicParams::cisco_aironet350();
  std::vector<device::WnicParams> wnics;
  for (const double ms : latencies_ms) wnics.push_back(wnic.with_latency(units::ms(ms)));
  for (const double mbps : bandwidths_mbps) wnics.push_back(wnic.with_bandwidth_mbps(mbps));

  const auto scenarios = workloads::all_scenarios(1);
  std::vector<const workloads::ScenarioBundle*> bundles;
  for (const auto& s : scenarios) bundles.push_back(&s);
  const auto cells =
      sim::make_grid(bundles, policies::standard_policy_names(), wnics, base);
  EXPECT_EQ(cells.size(), 340u);

  std::uint64_t digest = sim::kResultDigestSeed;
  for (const auto& r : sim::run_sweep(cells, {.jobs = jobs})) {
    digest = sim::fold_result_digest(digest, r);
  }
  return digest;
}

TEST(Golden, StandardGrid) {
  for (const int jobs : {1, 4}) {
    const std::uint64_t digest = standard_grid_digest({}, jobs);
    EXPECT_EQ(digest, kStandardGridDigest)
        << "standard grid digest at jobs=" << jobs << " is now " << hex(digest)
        << "; simulated results changed";
  }
}

TEST(Golden, FaultedGrid) {
  sim::SimConfig base;
  base.faults = faults::generate_schedule(7);
  for (const int jobs : {1, 4}) {
    const std::uint64_t digest = standard_grid_digest(base, jobs);
    EXPECT_EQ(digest, kFaultedGridDigest)
        << "faulted grid digest at jobs=" << jobs << " is now " << hex(digest)
        << "; simulated results changed";
  }
}

TEST(Golden, GrepDiskOnly) {
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(sim::SimConfig{}, workloads::grep_trace(), policy);
  EXPECT_EQ(r.syscalls, 6399u);
  const std::uint64_t digest = sim::fold_result_digest(sim::kResultDigestSeed, r);
  EXPECT_EQ(digest, kGrepDiskOnlyDigest)
      << "grep disk-only digest is now " << hex(digest) << "; simulated results changed";
}

TEST(Golden, Contention) {
  // The client mix of `bench_paper contention`: client i replays scenario
  // i mod 5 built from seed 1 + i over a 3 Mb/s crowded-cell link with link
  // quality 1 - 0.05 (i mod 4); client 0 starts at 12% battery, the rest ramp
  // from 40% to full. flexfetch on every client, fifo and battery admission,
  // and a 2-slot server with one slot reserved for clients below 30% battery.
  using Builder = workloads::ScenarioBundle (*)(std::uint64_t);
  const Builder builders[] = {
      workloads::scenario_grep_make, workloads::scenario_mplayer,
      workloads::scenario_thunderbird, workloads::scenario_forced_spinup,
      workloads::scenario_stale_acroread};
  std::vector<workloads::ScenarioBundle> bundles;
  for (std::uint64_t i = 0; i < 4; ++i) bundles.push_back(builders[i % 5](1 + i));

  const std::pair<int, const char*> cells[] = {
      {1, "fifo"}, {1, "battery"}, {4, "fifo"}, {4, "battery"}};
  const auto run_cell = [&](int n, const char* admission) {
    medium::MultiClientConfig config;
    config.server.capacity = 2;
    config.server.reserved_slots = 1;
    config.server.low_battery_threshold = 0.30;
    config.server.admission = admission;
    std::vector<std::unique_ptr<sim::Policy>> owned;
    std::vector<medium::ClientSpec> specs;
    for (int i = 0; i < n; ++i) {
      const auto& b = bundles[static_cast<std::size_t>(i)];
      owned.push_back(
          policies::make_policy("flexfetch", b.profiles, &b.oracle_future, 0.25));
      medium::ClientSpec spec;
      spec.name = b.name + "#" + std::to_string(i);
      spec.programs = b.programs;
      spec.policy = owned.back().get();
      spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
      spec.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
      spec.battery.initial_fraction =
          i == 0 ? 0.12
                 : 0.40 + 0.60 * static_cast<double>(i - 1) / static_cast<double>(n - 2);
      specs.push_back(std::move(spec));
    }
    return medium::MultiClientSim(config, std::move(specs)).run();
  };
  // Folds every client of every cell, in cell order.
  const auto digest_of = [](const std::vector<medium::MultiClientResult>& runs) {
    std::uint64_t digest = sim::kResultDigestSeed;
    for (const auto& run : runs) {
      for (const auto& r : run.clients) digest = sim::fold_result_digest(digest, r);
    }
    return digest;
  };

  std::vector<medium::MultiClientResult> serial;
  for (const auto& [n, admission] : cells) serial.push_back(run_cell(n, admission));
  std::vector<medium::MultiClientResult> parallel(std::size(cells));
  {
    ThreadPool pool(4);
    parallel_for(pool, std::size(cells), [&](std::size_t i) {
      parallel[i] = run_cell(cells[i].first, cells[i].second);
    });
  }
  for (const auto* runs : {&serial, &parallel}) {
    const std::uint64_t digest = digest_of(*runs);
    EXPECT_EQ(digest, kContentionDigest)
        << (runs == &serial ? "serial" : "4-thread") << " contention digest is now "
        << hex(digest) << "; simulated results changed";
  }
}

TEST(Golden, BatteryAblation) {
  // The battery-adaptive loss-rate ablation: mplayer then grep+make, each
  // under the paper's FlexFetch and three adaptive curves, at initial
  // battery fractions 0.05, 0.25, 0.5 and 1.0 plus a wall-power row, on a
  // 20 kJ pack with a 10 W base drain and a 2 Mb/s WNIC.
  const workloads::ScenarioBundle scenarios[] = {workloads::scenario_mplayer(1),
                                                 workloads::scenario_grep_make(1)};
  const char* const policies[] = {"flexfetch", "flexfetch-adaptive:linear",
                                  "flexfetch-adaptive:step@0.2:0.05:0.5",
                                  "flexfetch-adaptive:horizon-ratio@1800:0.05:0.5"};
  const std::pair<double, bool> batteries[] = {
      {0.05, false}, {0.25, false}, {0.5, false}, {1.0, false}, {1.0, true}};
  std::vector<sim::SweepCell> cells;
  for (const auto& scenario : scenarios) {
    for (const char* policy : policies) {
      for (const auto& [fraction, wall] : batteries) {
        sim::SweepCell cell;
        cell.scenario = &scenario;
        cell.policy = policy;
        cell.config.battery.capacity = Joules{20000.0};
        cell.config.battery.base_drain = Watts{10.0};
        cell.config.battery.initial_fraction = fraction;
        cell.config.battery.on_wall_power = wall;
        cell.wnic = device::WnicParams{}.with_bandwidth_mbps(2.0);
        cells.push_back(cell);
      }
    }
  }
  ASSERT_EQ(cells.size(), 40u);

  std::uint64_t digest = sim::kResultDigestSeed;
  for (const auto& r : sim::run_sweep(cells, {.jobs = 1})) {
    digest = sim::fold_result_digest(digest, r);
  }
  EXPECT_EQ(digest, kBatteryAblationDigest)
      << "battery ablation digest is now " << hex(digest) << "; simulated results changed";
}

TEST(Golden, FleetFingerprint) {
  fleet::FleetConfig config;
  config.users = 1024;
  config.telemetry = true;
  const fleet::PopulationGenerator gen(config.population);
  fleet::ScenarioCatalog catalog(config.population.scenario_seed,
                                 config.population.think_scales, config.tuning);
  const std::uint64_t digest =
      fnv1a(fleet::fingerprint(fleet::run_monolithic(config, gen, catalog)));
  EXPECT_EQ(digest, kFleetFingerprintDigest)
      << "fleet fingerprint digest is now " << hex(digest) << "; simulated results changed";
}

}  // namespace
}  // namespace flexfetch
