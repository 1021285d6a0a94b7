// Whole-system combinations and edge cases: every optional subsystem
// (roaming schedules, sync daemon, adaptive timeout, C-SCAN, FlexFetch)
// enabled at once, plus boundary inputs the individual suites skip.
#include <gtest/gtest.h>

#include "core/flexfetch.hpp"
#include "os/vfs.hpp"
#include "policies/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

sim::SimConfig everything_on() {
  sim::SimConfig config;
  config.sync = hoard::SyncConfig{.interval = Seconds{90.0}};
  config.adaptive_timeout.emplace();
  config.disk.seek_model = device::DiskParams::SeekModel::kDistance;
  config.wnic.bandwidth_schedule = {{Seconds{300.0}, units::mbps(5.5)},
                                    {Seconds{600.0}, units::mbps(11.0)}};
  config.collect_request_log = true;
  return config;
}

TEST(SystemCombo, AllSubsystemsTogetherRunAndConserveEnergy) {
  const auto scenario = workloads::scenario_grep_make(1);
  core::FlexFetchPolicy policy(core::FlexFetchConfig{}, scenario.profiles);
  sim::Simulator simulator(everything_on(), scenario.programs, policy);
  const auto r = simulator.run();

  EXPECT_GT(r.syscalls, 1000u);
  EXPECT_GT(r.sync_bytes, Bytes{0});  // make's object writes were synced.
  EXPECT_NEAR(r.total_energy().value(), (r.disk_energy() + r.wnic_energy()).value(), 1e-6);
  EXPECT_GT(r.makespan, Seconds{0.0});
  // The request log is internally consistent.
  for (const auto& e : r.request_log) {
    EXPECT_LE(e.arrival, e.completion);
    EXPECT_GE(e.energy, Joules{0.0});
  }
}

TEST(SystemCombo, AllSubsystemsStillBeatStatic) {
  const auto scenario = workloads::scenario_stale_acroread(1);
  core::FlexFetchPolicy adaptive(core::FlexFetchConfig{}, scenario.profiles);
  sim::Simulator sa(everything_on(), scenario.programs, adaptive);
  const auto ra = sa.run();
  core::FlexFetchPolicy static_variant(core::FlexFetchConfig::static_variant(),
                                       scenario.profiles);
  sim::Simulator ss(everything_on(), scenario.programs, static_variant);
  const auto rs = ss.run();
  EXPECT_LT(ra.total_energy(), rs.total_energy());
}

TEST(SystemCombo, DeterministicWithEverythingEnabled) {
  const auto scenario = workloads::scenario_thunderbird(1);
  Joules first = Joules{0.0};
  for (int i = 0; i < 2; ++i) {
    core::FlexFetchPolicy policy(core::FlexFetchConfig{}, scenario.profiles);
    sim::Simulator simulator(everything_on(), scenario.programs, policy);
    const Joules e = simulator.run().total_energy();
    if (i == 0) {
      first = e;
    } else {
      EXPECT_DOUBLE_EQ(e.value(), first.value());
    }
  }
}

// --- Boundary inputs -------------------------------------------------------

TEST(SystemCombo, EmptyTraceProgramIsHarmless) {
  trace::TraceBuilder b("real");
  b.process(60, 60);
  b.read(1, Bytes{0}, Bytes{4096});
  std::vector<sim::ProgramSpec> programs;
  programs.push_back(sim::ProgramSpec{.trace = b.build(), .name = "real"});
  programs.push_back(sim::ProgramSpec{.trace = trace::Trace("empty"),
                                      .name = "empty"});
  policies::DiskOnlyPolicy policy;
  sim::Simulator simulator(sim::SimConfig{},
                           sim::compile_programs(std::move(programs)), policy);
  const auto r = simulator.run();
  EXPECT_EQ(r.syscalls, 1u);
}

TEST(SystemCombo, AllEmptyProgramsFinishInstantly) {
  std::vector<sim::ProgramSpec> programs;
  programs.push_back(sim::ProgramSpec{.trace = trace::Trace("e1"), .name = "e1"});
  policies::DiskOnlyPolicy policy;
  sim::Simulator simulator(sim::SimConfig{},
                           sim::compile_programs(std::move(programs)), policy);
  const auto r = simulator.run();
  EXPECT_EQ(r.syscalls, 0u);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 0.0);
}

TEST(SystemCombo, FlexFetchWithEmptyMergedProfileList) {
  const core::Profile merged = core::Profile::merge({}, "none");
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.program(), "none");
  core::FlexFetchPolicy policy(core::FlexFetchConfig{}, merged);
  trace::TraceBuilder b("t");
  b.process(60, 60);
  b.read(1, Bytes{0}, Bytes{4096});
  const auto r = sim::simulate(sim::SimConfig{}, b.build(), policy);
  EXPECT_EQ(r.syscalls, 1u);  // Default-source path, no crash.
}

TEST(SystemCombo, CoalesceOrderedPreservesSubmissionOrder) {
  // Inode 1 is file 0 and inode 2 file 1, as a cache numbers them.
  const auto dirty = [](trace::Inode inode, std::uint64_t page) {
    return os::DirtyPage{.page = {inode, page},
                         .file = trace::FileId{static_cast<std::uint32_t>(inode - 1)}};
  };
  std::vector<os::PageRange> ranges;
  os::Vfs::coalesce({dirty(2, 5), dirty(2, 6), dirty(1, 0), dirty(1, 1), dirty(2, 7)},
                    ranges);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].inode, 2u);  // First-submitted stays first.
  EXPECT_EQ(ranges[0].page_count, 2u);
  EXPECT_EQ(ranges[1].inode, 1u);
  EXPECT_EQ(ranges[2].inode, 2u);  // Non-adjacent continuation kept apart.
  EXPECT_EQ(ranges[2].first_page, 7u);
}

TEST(SystemCombo, SyscallOnlyTraceKindsAreTolerated) {
  // A trace of opens/closes/seeks with a single real transfer.
  trace::TraceBuilder b("meta");
  b.process(60, 60);
  b.open(1);
  b.close(1);
  b.open(2);
  b.read(2, Bytes{0}, Bytes{4096});
  b.close(2);
  policies::WnicOnlyPolicy policy;
  const auto r = sim::simulate(sim::SimConfig{}, b.build(), policy);
  EXPECT_EQ(r.syscalls, 5u);
  EXPECT_EQ(r.net_requests, 1u);
}

TEST(SystemCombo, OracleComposesWithRoamingAndSync) {
  const auto scenario = workloads::scenario_mplayer(1);
  auto oracle = policies::make_policy("oracle", {}, &scenario.oracle_future);
  sim::Simulator simulator(everything_on(), scenario.programs, *oracle);
  const auto r = simulator.run();
  EXPECT_GT(r.total_energy(), Joules{0.0});
  EXPECT_NEAR(r.total_energy().value(), (r.disk_energy() + r.wnic_energy()).value(), 1e-6);
}

TEST(SystemCombo, BlueFSComposesWithAdaptiveTimeout) {
  const auto scenario = workloads::scenario_thunderbird(1);
  sim::SimConfig config;
  config.adaptive_timeout.emplace();
  auto bluefs = policies::make_policy("bluefs");
  sim::Simulator simulator(config, scenario.programs, *bluefs);
  const auto with = simulator.run();
  auto bluefs2 = policies::make_policy("bluefs");
  sim::Simulator s2(sim::SimConfig{}, scenario.programs, *bluefs2);
  const auto without = s2.run();
  // Adaptive timeout must not make BlueFS dramatically worse.
  EXPECT_LT(with.total_energy(), 1.2 * without.total_energy());
}

}  // namespace
}  // namespace flexfetch
