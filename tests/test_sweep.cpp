#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "device/energy_meter.hpp"
#include "faults/schedule.hpp"
#include "policies/factory.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

/// Bit-exact equality over every observable of a SimResult (doubles are
/// compared with ==: the determinism contract is *identical* results, not
/// merely close ones).
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
  EXPECT_EQ(a.disk_counters.requests, b.disk_counters.requests);
  EXPECT_EQ(a.disk_counters.sequential_hits, b.disk_counters.sequential_hits);
  EXPECT_EQ(a.disk_counters.spin_ups, b.disk_counters.spin_ups);
  EXPECT_EQ(a.disk_counters.spin_downs, b.disk_counters.spin_downs);
  EXPECT_EQ(a.disk_counters.bytes_read, b.disk_counters.bytes_read);
  EXPECT_EQ(a.disk_counters.bytes_written, b.disk_counters.bytes_written);
  EXPECT_EQ(a.disk_counters.seek_time, b.disk_counters.seek_time);
  EXPECT_EQ(a.disk_counters.spin_up_stalls, b.disk_counters.spin_up_stalls);
  EXPECT_EQ(a.disk_counters.stall_time, b.disk_counters.stall_time);
  EXPECT_EQ(a.wnic_counters.requests, b.wnic_counters.requests);
  EXPECT_EQ(a.wnic_counters.psm_transfers, b.wnic_counters.psm_transfers);
  EXPECT_EQ(a.wnic_counters.wakes, b.wnic_counters.wakes);
  EXPECT_EQ(a.wnic_counters.sleeps, b.wnic_counters.sleeps);
  EXPECT_EQ(a.wnic_counters.bytes_sent, b.wnic_counters.bytes_sent);
  EXPECT_EQ(a.wnic_counters.bytes_received, b.wnic_counters.bytes_received);
  EXPECT_EQ(a.wnic_counters.outage_stalls, b.wnic_counters.outage_stalls);
  EXPECT_EQ(a.wnic_counters.degraded_transfers,
            b.wnic_counters.degraded_transfers);
  EXPECT_EQ(a.wnic_counters.outage_wait, b.wnic_counters.outage_wait);
  EXPECT_EQ(a.wnic_counters.contended_transfers,
            b.wnic_counters.contended_transfers);
  EXPECT_EQ(a.wnic_counters.server_queue_waits,
            b.wnic_counters.server_queue_waits);
  EXPECT_EQ(a.wnic_counters.server_queue_wait,
            b.wnic_counters.server_queue_wait);
  EXPECT_EQ(a.cache_stats.lookups, b.cache_stats.lookups);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.ghost_hits, b.cache_stats.ghost_hits);
  EXPECT_EQ(a.cache_stats.insertions, b.cache_stats.insertions);
  EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
  EXPECT_EQ(a.scheduler_stats.submitted, b.scheduler_stats.submitted);
  EXPECT_EQ(a.scheduler_stats.merged, b.scheduler_stats.merged);
  EXPECT_EQ(a.scheduler_stats.dispatched, b.scheduler_stats.dispatched);
  EXPECT_EQ(a.scheduler_stats.sweeps, b.scheduler_stats.sweeps);
  EXPECT_EQ(a.syscalls, b.syscalls);
  EXPECT_EQ(a.disk_requests, b.disk_requests);
  EXPECT_EQ(a.net_requests, b.net_requests);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.sync_batches, b.sync_batches);
  EXPECT_EQ(a.sync_bytes, b.sync_bytes);
}

TEST(Sweep, ParallelGridIsBitIdenticalToSerial) {
  const auto scenarios = workloads::all_scenarios(1);
  ASSERT_EQ(scenarios.size(), 5u);
  std::vector<const workloads::ScenarioBundle*> refs;
  for (const auto& s : scenarios) refs.push_back(&s);

  const auto cells = sim::make_grid(
      refs, {"flexfetch", "disk-only"},
      {device::WnicParams::cisco_aironet350(),
       device::WnicParams::cisco_aironet350().with_latency(units::ms(20.0))});
  ASSERT_EQ(cells.size(), 5u * 2u * 2u);

  const auto serial = sim::run_sweep(cells, {.jobs = 1});
  // On a single-core host hardware_concurrency() is 1; force a genuinely
  // concurrent pool so the test still exercises cross-thread determinism.
  const int jobs =
      std::max(4, static_cast<int>(ThreadPool::default_concurrency()));
  const auto parallel = sim::run_sweep(cells, {.jobs = jobs});

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(cells[i].scenario->name + " / " + cells[i].policy);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(Sweep, RepeatedParallelRunsAgree) {
  const auto scenario = workloads::scenario_mplayer(1);
  const auto cells =
      sim::make_grid({&scenario}, {"flexfetch", "wnic-only"},
                     {device::WnicParams::cisco_aironet350()});
  const auto a = sim::run_sweep(cells, {.jobs = 4});
  const auto b = sim::run_sweep(cells, {.jobs = 4});
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(SharedProgramSet, ThreadsCopyAndRunABundleWhileOneMutatesItsCopy) {
  // Copies of a bundle's programs share its records and compiled set; the
  // threads only update reference counts. The one thread that mutates its
  // copy takes a private copy of the records first.
  const auto bundle =
      workloads::scenario_grep_make(1, workloads::ScenarioTuning{.workload_scale = 0.15});
  const std::vector<std::string> names = {"disk-only", "flexfetch", "oracle"};
  const auto run_all = [&](const std::vector<sim::ProgramSpec>& programs) {
    std::uint64_t digest = sim::kResultDigestSeed;
    for (const auto& name : names) {
      auto policy = policies::make_policy(name, bundle.profiles, &bundle.oracle_future);
      sim::Simulator simulator(sim::SimConfig{}, programs, *policy);
      digest = sim::fold_result_digest(digest, simulator.run());
    }
    return digest;
  };
  std::vector<std::vector<trace::SyscallRecord>> before;
  for (const auto& p : bundle.programs) before.push_back(p.trace.records());
  const std::uint64_t serial = run_all(bundle.programs);

  std::vector<std::uint64_t> digests(4, 0);
  std::size_t mutated_size = 0;
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < digests.size(); ++t) {
      threads.emplace_back([&, t] {
        const std::vector<sim::ProgramSpec> copy = bundle.programs;
        digests[t] = run_all(copy);
      });
    }
    threads.emplace_back([&] {
      std::vector<sim::ProgramSpec> mine = bundle.programs;
      mine[0].trace.shift(Seconds{1.0});
      mine[0].trace.push_back(mine[0].trace.records().back());
      mutated_size = mine[0].trace.size();
    });
    for (auto& t : threads) t.join();
  }
  for (const std::uint64_t d : digests) EXPECT_EQ(d, serial);
  EXPECT_EQ(mutated_size, before[0].size() + 1);
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(bundle.programs[p].trace.records(), before[p]) << "program " << p;
  }
}

TEST(Sweep, MakeGridOrdersWnicsInnermost) {
  const auto scenario = workloads::scenario_mplayer(1);
  const auto wnics = {device::WnicParams::cisco_aironet350(),
                      device::WnicParams::cisco_aironet350()
                          .with_bandwidth_mbps(2.0)};
  const auto cells =
      sim::make_grid({&scenario}, {"disk-only", "wnic-only"}, wnics);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].policy, "disk-only");
  EXPECT_EQ(cells[1].policy, "disk-only");
  EXPECT_EQ(cells[2].policy, "wnic-only");
  EXPECT_EQ(cells[1].wnic.bandwidth, units::mbps(2.0));
}

TEST(Sweep, UnknownPolicyPropagatesFromWorkers) {
  const auto scenario = workloads::scenario_mplayer(1);
  const auto cells = sim::make_grid({&scenario}, {"no-such-policy"},
                                    {device::WnicParams::cisco_aironet350()});
  EXPECT_THROW(sim::run_sweep(cells, {.jobs = 1}), ConfigError);
  EXPECT_THROW(sim::run_sweep(cells, {.jobs = 4}), ConfigError);
}

TEST(Sweep, ResolveJobsPrefersExplicitThenEnv) {
  EXPECT_EQ(sim::resolve_jobs(3), 3);
  ::setenv("FF_JOBS", "7", 1);
  EXPECT_EQ(sim::resolve_jobs(0), 7);
  EXPECT_EQ(sim::resolve_jobs(2), 2);
  // A set FF_JOBS must be a whole positive int, and an explicit count
  // never reads it.
  for (const char* bad :
       {"not-a-number", "4x", "0", "-2", " 4", "", "99999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("FF_JOBS", bad, 1);
    EXPECT_THROW(sim::resolve_jobs(0), ConfigError);
    EXPECT_EQ(sim::resolve_jobs(2), 2);
  }
  ::unsetenv("FF_JOBS");
  EXPECT_EQ(sim::resolve_jobs(0),
            static_cast<int>(ThreadPool::default_concurrency()));
}

TEST(Sweep, FaultedGridIsBitIdenticalSerialVsParallel) {
  // Fault injection must not disturb the determinism contract: the same
  // seeded schedule applied to every cell yields bit-identical results
  // whether the grid runs on one thread or many.
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells =
      sim::make_grid({&scenario}, {"flexfetch", "wnic-only", "disk-only"},
                     {device::WnicParams::cisco_aironet350(),
                      device::WnicParams::cisco_aironet350().with_latency(
                          units::ms(20.0))});
  const auto schedule = faults::generate_schedule(7);
  ASSERT_FALSE(schedule.empty());
  for (auto& cell : cells) cell.config.faults = schedule;

  const auto serial = sim::run_sweep(cells, {.jobs = 1});
  const int jobs =
      std::max(4, static_cast<int>(ThreadPool::default_concurrency()));
  const auto parallel = sim::run_sweep(cells, {.jobs = jobs});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(cells[i].policy);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(Sweep, FaultedRunIsIdenticalWithTelemetryOnOrOff) {
  // Telemetry observes; it must not perturb a faulted run either.
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid({&scenario}, {"flexfetch"},
                              {device::WnicParams::cisco_aironet350()});
  for (auto& cell : cells) {
    cell.config.faults = faults::generate_schedule(5);
  }
  const auto quiet = sim::run_sweep(cells, {.jobs = 1});
  for (auto& cell : cells) {
    cell.config.telemetry.enabled = true;
    cell.config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
  }
  const auto traced = sim::run_sweep(cells, {.jobs = 1});
  ASSERT_EQ(quiet.size(), traced.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    expect_identical(quiet[i], traced[i]);
  }
  EXPECT_FALSE(traced[0].trace_events.empty());
  EXPECT_TRUE(quiet[0].trace_events.empty());
}

// --- Streaming sweep + aggregation ------------------------------------------

TEST(Sweep, StreamingDeliversInOrderAndMatchesBatch) {
  const auto scenario = workloads::scenario_mplayer(1);
  const auto cells = sim::make_grid(
      {&scenario}, {"flexfetch", "disk-only", "wnic-only"},
      {device::WnicParams::cisco_aironet350(),
       device::WnicParams::cisco_aironet350().with_latency(units::ms(20.0))});
  const auto batch = sim::run_sweep(cells, {.jobs = 1});

  const int jobs =
      std::max(4, static_cast<int>(ThreadPool::default_concurrency()));
  std::vector<std::size_t> order;
  std::vector<sim::SimResult> streamed(cells.size());
  sim::run_sweep_streaming(
      cells, {.jobs = jobs},
      [&](std::size_t i, const sim::SweepCell& cell, sim::SimResult&& result) {
        EXPECT_EQ(cell.policy, cells[i].policy);
        order.push_back(i);
        streamed[i] = std::move(result);
      });

  // The sink sees every cell exactly once, in strict grid order, and each
  // streamed result is bit-identical to the batch engine's.
  ASSERT_EQ(order.size(), cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].policy);
    expect_identical(batch[i], streamed[i]);
  }
}

TEST(Sweep, StreamingPropagatesWorkerFailure) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid({&scenario}, {"disk-only", "no-such-policy"},
                              {device::WnicParams::cisco_aironet350()});
  std::vector<std::size_t> delivered;
  auto sink = [&](std::size_t i, const sim::SweepCell&, sim::SimResult&&) {
    delivered.push_back(i);
  };
  EXPECT_THROW(sim::run_sweep_streaming(cells, {.jobs = 1}, sink), ConfigError);
  EXPECT_THROW(sim::run_sweep_streaming(cells, {.jobs = 4}, sink), ConfigError);
  // Cells past the failed one are never delivered.
  for (const std::size_t i : delivered) EXPECT_LT(i, 1u);
}

TEST(Sweep, RunningStatMergeMatchesSequential) {
  const double samples[] = {3.5, -1.25, 8.0, 0.0, 2.75, 100.5, -7.0, 4.0};
  sim::RunningStat sequential;
  for (const double v : samples) sequential.add(v);

  sim::RunningStat left, right;
  for (std::size_t i = 0; i < 3; ++i) left.add(samples[i]);
  for (std::size_t i = 3; i < std::size(samples); ++i) right.add(samples[i]);
  left.merge(right);

  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), sequential.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), sequential.min());
  EXPECT_DOUBLE_EQ(left.max(), sequential.max());

  // Merging an empty accumulator (either way) is the identity.
  sim::RunningStat empty;
  sim::RunningStat copy = left;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), left.count());
  EXPECT_DOUBLE_EQ(copy.mean(), left.mean());
  sim::RunningStat from_empty;
  from_empty.merge(left);
  EXPECT_EQ(from_empty.count(), left.count());
  EXPECT_DOUBLE_EQ(from_empty.mean(), left.mean());
}

TEST(Sweep, AggregateIsIdenticalForAnyWorkerCount) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid(
      {&scenario}, {"flexfetch", "disk-only"},
      {device::WnicParams::cisco_aironet350(),
       device::WnicParams::cisco_aironet350().with_latency(units::ms(20.0))});
  for (auto& cell : cells) cell.config.telemetry.enabled = true;

  auto aggregate_with = [&](int jobs) {
    sim::SweepAggregator agg;
    sim::run_sweep_streaming(
        cells, {.jobs = jobs},
        [&](std::size_t, const sim::SweepCell& cell, sim::SimResult&& result) {
          agg.add(cell, result);
        });
    std::ostringstream os;
    sim::write_strata_json(os, agg, 2);
    return os.str();
  };

  const auto serial_json = aggregate_with(1);
  const auto parallel_json = aggregate_with(4);
  EXPECT_EQ(serial_json, parallel_json);
  EXPECT_NE(serial_json.find("\"mplayer/flexfetch\""), std::string::npos);
  EXPECT_NE(serial_json.find("\"energy_j\""), std::string::npos);
  EXPECT_NE(serial_json.find("\"hist.disk_service_s\""), std::string::npos);
}

TEST(Sweep, AggregatorFoldsStrataStatistics) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto cells = sim::make_grid(
      {&scenario}, {"disk-only"},
      {device::WnicParams::cisco_aironet350(),
       device::WnicParams::cisco_aironet350().with_latency(units::ms(20.0))});
  const auto results = sim::run_sweep(cells, {.jobs = 1});

  sim::SweepAggregator agg;
  for (std::size_t i = 0; i < cells.size(); ++i) agg.add(cells[i], results[i]);

  EXPECT_EQ(agg.cells_seen(), cells.size());
  ASSERT_EQ(agg.strata().size(), 1u);
  const auto& [key, stratum] = *agg.strata().begin();
  EXPECT_EQ(key, "mplayer/disk-only");
  EXPECT_EQ(stratum.cells, cells.size());
  EXPECT_EQ(stratum.energy_j.count(), cells.size());
  // min <= mean <= max, and the extremes come from the actual results.
  const double e0 = results[0].total_energy().value();
  const double e1 = results[1].total_energy().value();
  EXPECT_DOUBLE_EQ(stratum.energy_j.min(), std::min(e0, e1));
  EXPECT_DOUBLE_EQ(stratum.energy_j.max(), std::max(e0, e1));
  EXPECT_NEAR(stratum.energy_j.mean(), (e0 + e1) / 2.0, 1e-9);
}

TEST(Sweep, RunningStatSingleSampleHasZeroSpread) {
  sim::RunningStat s;
  s.add(42.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.5);
  EXPECT_DOUBLE_EQ(s.min(), 42.5);
  EXPECT_DOUBLE_EQ(s.max(), 42.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  // Merging an empty partial is the identity, in either direction.
  sim::RunningStat empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.5);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
}

TEST(Sweep, EmptyAggregatorEmitsNoStrata) {
  sim::SweepAggregator agg;
  EXPECT_EQ(agg.cells_seen(), 0u);
  EXPECT_TRUE(agg.strata().empty());
  std::ostringstream os;
  sim::write_strata_json(os, agg, 0);
  EXPECT_EQ(os.str(), "\"strata\": [\n]");
}

TEST(Sweep, HistogramQuantileEdgeCases) {
  telemetry::Histogram h;
  // No samples: no quantiles, by convention 0.0 at every q.
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 1.0), 0.0);

  // Every sample in one bucket: every quantile is that bucket's upper
  // edge, including q <= 0 (first populated bucket).
  h.record(3.0);
  h.record(3.5);
  const double edge =
      telemetry::Histogram::bucket_upper_edge(telemetry::Histogram::bucket_of(3.0));
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 0.0), edge);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 0.5), edge);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(h, 1.0), edge);

  // Two buckets: the median stays in the lower one, the tail crosses.
  telemetry::Histogram two;
  two.record(1.5);
  two.record(1.6);
  two.record(1.7);
  two.record(1000.0);
  const double low =
      telemetry::Histogram::bucket_upper_edge(telemetry::Histogram::bucket_of(1.5));
  const double high = telemetry::Histogram::bucket_upper_edge(
      telemetry::Histogram::bucket_of(1000.0));
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(two, 0.5), low);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(two, 0.75), low);
  EXPECT_DOUBLE_EQ(sim::histogram_quantile(two, 1.0), high);
}

}  // namespace
}  // namespace flexfetch
