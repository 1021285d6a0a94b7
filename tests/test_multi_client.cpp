#include "medium/multi_client.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "policies/factory.hpp"
#include "sim/simulator.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::medium {
namespace {

/// Field-by-field bit-identity over everything a SimResult aggregates
/// (mirrors the sweep determinism harness in test_sweep.cpp).
void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.io_time, b.io_time);
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(device::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<device::EnergyCategory>(c);
    EXPECT_EQ(a.disk_meter[cat], b.disk_meter[cat]) << to_string(cat);
    EXPECT_EQ(a.wnic_meter[cat], b.wnic_meter[cat]) << to_string(cat);
  }
  EXPECT_EQ(a.wnic_counters.requests, b.wnic_counters.requests);
  EXPECT_EQ(a.wnic_counters.psm_transfers, b.wnic_counters.psm_transfers);
  EXPECT_EQ(a.wnic_counters.wakes, b.wnic_counters.wakes);
  EXPECT_EQ(a.wnic_counters.sleeps, b.wnic_counters.sleeps);
  EXPECT_EQ(a.wnic_counters.bytes_sent, b.wnic_counters.bytes_sent);
  EXPECT_EQ(a.wnic_counters.bytes_received, b.wnic_counters.bytes_received);
  EXPECT_EQ(a.wnic_counters.contended_transfers,
            b.wnic_counters.contended_transfers);
  EXPECT_EQ(a.wnic_counters.server_queue_waits,
            b.wnic_counters.server_queue_waits);
  EXPECT_EQ(a.wnic_counters.server_queue_wait,
            b.wnic_counters.server_queue_wait);
  EXPECT_EQ(a.disk_counters.requests, b.disk_counters.requests);
  EXPECT_EQ(a.disk_counters.spin_ups, b.disk_counters.spin_ups);
  EXPECT_EQ(a.disk_counters.spin_downs, b.disk_counters.spin_downs);
  EXPECT_EQ(a.syscalls, b.syscalls);
  EXPECT_EQ(a.disk_requests, b.disk_requests);
  EXPECT_EQ(a.net_requests, b.net_requests);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.sync_batches, b.sync_batches);
  EXPECT_EQ(a.sync_bytes, b.sync_bytes);
  // Metrics: identical present slots and values, and bit-identical
  // histograms.
  EXPECT_TRUE(a.metrics == b.metrics);
}

struct Fleet {
  MultiClientConfig config;
  std::vector<ClientSpec> specs;
  /// Owns the policies the specs point at; must outlive run().
  std::vector<std::unique_ptr<sim::Policy>> policies;
};

/// N clients all running `scenario(seed + i)` under one policy.
Fleet make_fleet(std::size_t n, const std::string& policy,
                 const std::string& admission, std::uint64_t seed = 1) {
  Fleet f;
  f.config.server.capacity = 2;
  f.config.server.reserved_slots = 1;
  f.config.server.low_battery_threshold = 0.30;
  f.config.server.admission = admission;
  f.config.audit.enabled = true;
  for (std::size_t i = 0; i < n; ++i) {
    auto bundle = workloads::scenario_mplayer(seed + i);
    ClientSpec spec;
    spec.name = "client" + std::to_string(i);
    spec.programs = std::move(bundle.programs);
    f.policies.push_back(
        policies::make_policy(policy, bundle.profiles, nullptr));
    spec.policy = f.policies.back().get();
    // Client 0 is nearly drained; the rest are healthy and large enough
    // to stay above the low-battery threshold for the whole run.
    spec.battery.initial_fraction = i == 0 ? 0.10 : 0.90;
    f.specs.push_back(std::move(spec));
  }
  return f;
}

TEST(MultiClient, SingleClientDegeneracy) {
  for (auto& bundle : workloads::all_scenarios(1)) {
    SCOPED_TRACE(bundle.name);
    const auto solo_policy =
        policies::make_policy("flexfetch", bundle.profiles, nullptr);
    sim::Simulator solo(sim::SimConfig{}, bundle.programs, *solo_policy);
    const auto expected = solo.run();

    ClientSpec spec;
    spec.name = bundle.name;
    spec.programs = bundle.programs;
    const auto multi_policy =
        policies::make_policy("flexfetch", bundle.profiles, nullptr);
    spec.policy = multi_policy.get();
    MultiClientConfig config;
    config.audit.enabled = true;
    MultiClientSim sim(config, {std::move(spec)});
    auto result = sim.run();

    ASSERT_EQ(result.clients.size(), 1u);
    expect_identical(expected, result.clients[0]);
    // The medium was invisible: no contention, no queueing.
    EXPECT_EQ(result.medium.contended_transfers, 0u);
    EXPECT_EQ(result.server.queue_waits, 0u);
    EXPECT_EQ(result.clients[0].wnic_counters.contended_transfers, 0u);
    EXPECT_EQ(result.clients[0].wnic_counters.server_queue_waits, 0u);
  }
}

TEST(MultiClient, SingleClientDegeneracyWithTelemetry) {
  auto bundle = workloads::scenario_grep_make(1);
  sim::SimConfig config;
  config.telemetry.enabled = true;

  const auto solo_policy =
      policies::make_policy("flexfetch", bundle.profiles, nullptr);
  sim::Simulator solo(config, bundle.programs, *solo_policy);
  const auto expected = solo.run();

  ClientSpec spec;
  spec.config = config;
  spec.programs = bundle.programs;
  const auto multi_policy =
      policies::make_policy("flexfetch", bundle.profiles, nullptr);
  spec.policy = multi_policy.get();
  MultiClientSim sim(MultiClientConfig{}, {std::move(spec)});
  auto result = sim.run();

  ASSERT_EQ(result.clients.size(), 1u);
  expect_identical(expected, result.clients[0]);
}

TEST(MultiClient, RepeatedRunsAreBitIdentical) {
  auto run_once = [] {
    auto f = make_fleet(3, "flexfetch", "fifo");
    return MultiClientSim(f.config, std::move(f.specs)).run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a.clients[i], b.clients[i]);
  }
  EXPECT_EQ(a.medium.transfers, b.medium.transfers);
  EXPECT_EQ(a.medium.airtime, b.medium.airtime);
  EXPECT_EQ(a.server.queue_wait, b.server.queue_wait);
  EXPECT_EQ(a.battery_final, b.battery_final);
}

TEST(MultiClient, ContentionIsVisibleAtFourClients) {
  auto f = make_fleet(4, "wnic-only", "fifo");
  auto result = MultiClientSim(f.config, std::move(f.specs)).run();

  // Everything flows over one AP and a 2-slot server: shares drop below
  // 1.0 and at least some transfers queue for a slot.
  EXPECT_GT(result.medium.transfers, 0u);
  EXPECT_GT(result.medium.contended_transfers, 0u);
  EXPECT_LT(result.medium.mean_share(), 1.0);
  EXPECT_GT(result.server.queue_waits, 0u);
  EXPECT_GT(result.server.queue_wait, Seconds{0.0});
  EXPECT_EQ(result.server.conservation_violations, 0u);

  // Contention slows the contenders down relative to a private channel.
  auto solo_bundle = workloads::scenario_mplayer(1);
  const auto solo_policy =
      policies::make_policy("wnic-only", solo_bundle.profiles, nullptr);
  sim::Simulator solo(sim::SimConfig{}, solo_bundle.programs, *solo_policy);
  const auto alone = solo.run();
  EXPECT_GT(result.clients[0].makespan, alone.makespan);
}

TEST(MultiClient, ContentionShiftsFlexFetchTowardsDisk) {
  // Mirrors the crowded-cell preset of `bench_paper contention`: four
  // different paper scenarios on a 3 Mb/s cell (the MAC goodput of a
  // 5.5 Mb/s PHY after rate adaptation), which sits near the disk/network
  // breakeven. Each client's uncontended reference is itself, alone, with
  // the identical spec — the delta is pure contention.
  using Builder = workloads::ScenarioBundle (*)(std::uint64_t);
  const Builder builders[] = {
      workloads::scenario_grep_make, workloads::scenario_mplayer,
      workloads::scenario_thunderbird, workloads::scenario_forced_spinup};
  std::vector<workloads::ScenarioBundle> bundles;
  for (std::size_t i = 0; i < 4; ++i) bundles.push_back(builders[i](1 + i));

  const auto spec_for = [&](std::size_t i) {
    ClientSpec spec;
    spec.name = bundles[i].name;
    spec.programs = bundles[i].programs;
    spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
    spec.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
    spec.battery.initial_fraction = i == 0 ? 0.12 : 0.40;
    return spec;
  };
  MultiClientConfig config;
  config.server.capacity = 2;
  config.server.reserved_slots = 1;
  config.server.low_battery_threshold = 0.30;
  config.audit.enabled = true;

  Bytes solo_net{0}, solo_total{0};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto policy = policies::make_policy(
        "flexfetch", bundles[i].profiles, &bundles[i].oracle_future, 0.25);
    ClientSpec spec = spec_for(i);
    spec.policy = policy.get();
    std::vector<ClientSpec> specs;
    specs.push_back(std::move(spec));
    const auto r = MultiClientSim(config, std::move(specs)).run();
    solo_net += r.clients[0].net_bytes;
    solo_total += r.clients[0].net_bytes + r.clients[0].disk_bytes;
  }

  std::vector<std::unique_ptr<sim::Policy>> policies;
  std::vector<ClientSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    policies.push_back(policies::make_policy(
        "flexfetch", bundles[i].profiles, &bundles[i].oracle_future, 0.25));
    ClientSpec spec = spec_for(i);
    spec.policy = policies.back().get();
    specs.push_back(std::move(spec));
  }
  const auto crowded = MultiClientSim(config, std::move(specs)).run();
  Bytes crowd_net{0}, crowd_total{0};
  for (const auto& c : crowded.clients) {
    crowd_net += c.net_bytes;
    crowd_total += c.net_bytes + c.disk_bytes;
  }

  ASSERT_GT(solo_total, Bytes{0});
  ASSERT_GT(crowd_total, Bytes{0});
  const double frac_solo = solo_net.as_double() / solo_total.as_double();
  const double frac_crowded = crowd_net.as_double() / crowd_total.as_double();
  // The shift must be material, not a stage-boundary rounding artifact:
  // the history-aware estimator prices the divided airtime and the queued
  // server into every network estimate, and whole stages flip to disk.
  EXPECT_LT(frac_crowded, frac_solo - 0.005);
}

TEST(MultiClient, BatteryAdmissionShieldsLowBatteryClient) {
  auto fifo_fleet = make_fleet(4, "wnic-only", "fifo");
  auto fifo = MultiClientSim(fifo_fleet.config, std::move(fifo_fleet.specs))
                  .run();

  auto batt_fleet = make_fleet(4, "wnic-only", "battery");
  auto batt = MultiClientSim(batt_fleet.config, std::move(batt_fleet.specs))
                  .run();

  // Client 0 (10% battery) keeps the reserved slot to itself: it queues
  // less and burns less CAM-idle energy than under FIFO.
  EXPECT_LT(batt.clients[0].wnic_counters.server_queue_wait,
            fifo.clients[0].wnic_counters.server_queue_wait);
  EXPECT_LT(batt.clients[0].total_energy(), fifo.clients[0].total_energy());
  // The healthy clients paid for it with reserved-slot deferrals, and the
  // policy never idled a slot a waiting client was allowed to use.
  EXPECT_GT(batt.server.reserved_deferrals, 0u);
  EXPECT_EQ(batt.server.conservation_violations, 0u);
  EXPECT_EQ(fifo.server.reserved_deferrals, 0u);
}

TEST(MultiClient, BatteryFractionsDischargeMonotonically) {
  auto f = make_fleet(2, "wnic-only", "fifo");
  const double start0 = f.specs[0].battery.initial_fraction;
  const double start1 = f.specs[1].battery.initial_fraction;
  auto result = MultiClientSim(f.config, std::move(f.specs)).run();
  ASSERT_EQ(result.battery_final.size(), 2u);
  EXPECT_LT(result.battery_final[0], start0);
  EXPECT_LT(result.battery_final[1], start1);
  EXPECT_GE(result.battery_final[0], 0.0);
}

TEST(MultiClient, RejectsEmptyAndNullConfigs) {
  EXPECT_THROW(MultiClientSim(MultiClientConfig{}, {}), ConfigError);
  ClientSpec no_policy;
  no_policy.programs = workloads::scenario_mplayer(1).programs;
  EXPECT_THROW(MultiClientSim(MultiClientConfig{}, {std::move(no_policy)}),
               ConfigError);
}

}  // namespace
}  // namespace flexfetch::medium
