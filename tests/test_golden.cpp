// Golden digests: cross-commit pins of simulated results. Each constant is
// a digest of every simulated number a fixed run produces, so a mismatch
// means some result changed. A speed-only change must leave every constant
// as it is. A change that moves results on purpose replaces the constant
// with the value the failing test prints, and names and explains the change
// in CHANGES.md.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/catalog.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "policies/factory.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

/// fold_result_digest over the standard 340-cell grid (StandardGrid below);
/// the same grid, order and digest as perfbench's grid workload at seed 1.
constexpr std::uint64_t kStandardGridDigest = 0x48e4c60c78c1ed36;
/// FNV-1a of fleet::fingerprint for 1,024 default users, telemetry on.
constexpr std::uint64_t kFleetFingerprintDigest = 0xde08c70d8c2eae57;

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

TEST(Golden, StandardGrid) {
  // all_scenarios(1) x standard_policy_names() x the paper's WNIC axes (the
  // 13 latencies at 11 Mb/s and 4 bandwidths at 1 ms of bench::SweepSpec),
  // fault-free and telemetry off, in sim::make_grid order, run serially.
  const std::vector<double> latencies_ms = {0.0,  1.0,  3.0,  5.0,  7.0,  9.0, 12.0,
                                            15.0, 20.0, 30.0, 50.0, 70.0, 100.0};
  const std::vector<double> bandwidths_mbps = {1.0, 2.0, 5.5, 11.0};
  const auto base = device::WnicParams::cisco_aironet350();
  std::vector<device::WnicParams> wnics;
  for (const double ms : latencies_ms) wnics.push_back(base.with_latency(units::ms(ms)));
  for (const double mbps : bandwidths_mbps) wnics.push_back(base.with_bandwidth_mbps(mbps));

  const auto scenarios = workloads::all_scenarios(1);
  std::vector<const workloads::ScenarioBundle*> bundles;
  for (const auto& s : scenarios) bundles.push_back(&s);
  const auto cells = sim::make_grid(bundles, policies::standard_policy_names(), wnics);
  ASSERT_EQ(cells.size(), 340u);

  std::uint64_t digest = sim::kResultDigestSeed;
  for (const auto& r : sim::run_sweep(cells, {.jobs = 1})) {
    digest = sim::fold_result_digest(digest, r);
  }
  EXPECT_EQ(digest, kStandardGridDigest)
      << "standard grid digest is now " << hex(digest) << "; simulated results changed";
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
