// Fault injection + invariant audit: schedule generation/validation, the
// device-level fault semantics, additivity (an inactive schedule changes
// nothing), the SimAudit invariant checker, and the end-to-end failover
// demo (a mid-stage WNIC disconnection flips FlexFetch network -> disk).
#include "faults/schedule.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "core/flexfetch.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "faults/audit.hpp"
#include "policies/factory.hpp"
#include "sim/simulator.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch {
namespace {

constexpr double kEps = 1e-9;

device::DeviceRequest read_req(Bytes lba, Bytes size) {
  return device::DeviceRequest{.lba = lba, .size = size, .is_write = false};
}

// ---------------------------------------------------------------------------
// Schedule generation and validation.

TEST(FaultSchedule, GenerationIsDeterministicPerSeed) {
  const auto a = faults::generate_schedule(7);
  const auto b = faults::generate_schedule(7);
  ASSERT_EQ(a.wnic.outages.size(), b.wnic.outages.size());
  for (std::size_t i = 0; i < a.wnic.outages.size(); ++i) {
    EXPECT_EQ(a.wnic.outages[i].start, b.wnic.outages[i].start);
    EXPECT_EQ(a.wnic.outages[i].end, b.wnic.outages[i].end);
  }
  ASSERT_EQ(a.wnic.degradations.size(), b.wnic.degradations.size());
  for (std::size_t i = 0; i < a.wnic.degradations.size(); ++i) {
    EXPECT_EQ(a.wnic.degradations[i].factor, b.wnic.degradations[i].factor);
  }
  ASSERT_EQ(a.disk.spin_up_stalls.size(), b.disk.spin_up_stalls.size());
  for (std::size_t i = 0; i < a.disk.spin_up_stalls.size(); ++i) {
    EXPECT_EQ(a.disk.spin_up_stalls[i].extra_time,
              b.disk.spin_up_stalls[i].extra_time);
    EXPECT_EQ(a.disk.spin_up_stalls[i].extra_energy,
              b.disk.spin_up_stalls[i].extra_energy);
  }
  // A different seed draws a different script.
  const auto c = faults::generate_schedule(8);
  EXPECT_FALSE(a.wnic.outages.size() == c.wnic.outages.size() &&
               !a.wnic.outages.empty() &&
               a.wnic.outages[0].start == c.wnic.outages[0].start);
}

TEST(FaultSchedule, GeneratedScheduleIsNonEmptyAndValid) {
  const auto s = faults::generate_schedule(1);
  EXPECT_FALSE(s.empty());
  EXPECT_NO_THROW(s.validate());
  for (std::size_t i = 1; i < s.wnic.outages.size(); ++i) {
    EXPECT_GE(s.wnic.outages[i].start, s.wnic.outages[i - 1].end);
  }
  for (const auto& d : s.wnic.degradations) {
    EXPECT_GT(d.factor, 0.0);
    EXPECT_LE(d.factor, 1.0);
  }
}

TEST(FaultSchedule, ValidateRejectsOverlappingWindows) {
  faults::FaultSchedule s;
  s.wnic.outages = {{.start = Seconds{0.0}, .end = Seconds{10.0}}, {.start = Seconds{5.0}, .end = Seconds{15.0}}};
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(FaultSchedule, ValidateRejectsBadDegradationFactor) {
  faults::FaultSchedule s;
  s.wnic.degradations = {{.start = Seconds{0.0}, .end = Seconds{10.0}, .factor = 1.5}};
  EXPECT_THROW(s.validate(), ConfigError);
  s.wnic.degradations = {{.start = Seconds{0.0}, .end = Seconds{10.0}, .factor = 0.0}};
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(FaultSchedule, PointQueriesHonourHalfOpenWindows) {
  faults::WnicFaultSchedule s;
  s.outages = {{.start = Seconds{5.0}, .end = Seconds{15.0}}, {.start = Seconds{20.0}, .end = Seconds{25.0}}};
  EXPECT_EQ(s.outage_at(Seconds{4.999}), nullptr);
  ASSERT_NE(s.outage_at(Seconds{5.0}), nullptr);
  EXPECT_EQ(s.outage_at(Seconds{5.0})->end, Seconds{15.0});
  EXPECT_NE(s.outage_at(Seconds{14.999}), nullptr);
  EXPECT_EQ(s.outage_at(Seconds{15.0}), nullptr);  // End is exclusive.
  EXPECT_NE(s.outage_at(Seconds{22.0}), nullptr);
}

// ---------------------------------------------------------------------------
// Device-level fault semantics.

TEST(FaultWnic, OutageStallsServiceUntilWindowEnd) {
  faults::WnicFaultSchedule schedule;
  schedule.outages = {{.start = Seconds{5.0}, .end = Seconds{15.0}}};
  device::Wnic w;
  w.set_fault_schedule(&schedule);
  const auto res = w.service(Seconds{6.0}, read_req(Bytes{0}, 256 * kKiB));
  EXPECT_NEAR(res.arrival.value(), 6.0, kEps);
  EXPECT_NEAR(res.fault_delay.value(), 9.0, kEps);  // Waits 6.0 -> 15.0.
  EXPECT_GE(res.start, Seconds{15.0 - kEps});
  EXPECT_EQ(w.counters().outage_stalls, 1u);
  EXPECT_NEAR(w.counters().outage_wait.value(), 9.0, kEps);
}

TEST(FaultWnic, DegradationScalesTransferTime) {
  faults::WnicFaultSchedule schedule;
  schedule.degradations = {{.start = Seconds{0.0}, .end = Seconds{100.0}, .factor = 0.5}};
  device::Wnic degraded;
  degraded.set_fault_schedule(&schedule);
  device::Wnic nominal;
  const auto slow = degraded.service(Seconds{0.0}, read_req(Bytes{0}, Bytes{1'375'000}));
  const auto fast = nominal.service(Seconds{0.0}, read_req(Bytes{0}, Bytes{1'375'000}));
  // Same RPC latency; the payload streams at half rate: 2 s vs 1 s.
  EXPECT_NEAR(((slow.completion - slow.start) - (fast.completion - fast.start)).value(),
              1.0, 1e-6);
  EXPECT_EQ(degraded.counters().degraded_transfers, 1u);
  EXPECT_EQ(nominal.counters().degraded_transfers, 0u);
}

TEST(FaultDisk, SpinUpStallStretchesAndChargesTheSpinUp) {
  faults::DiskFaultSchedule schedule;
  schedule.spin_up_stalls = {
      {.start = Seconds{50.0}, .end = Seconds{70.0}, .extra_time = Seconds{3.0}, .extra_energy = Joules{7.5}}};
  device::Disk d;
  d.set_fault_schedule(&schedule);
  d.advance_to(Seconds{60.0});  // Deep standby (spin-down completed at 22.3 s).
  ASSERT_EQ(d.state(), device::DiskState::kStandby);
  const auto res = d.service(Seconds{60.0}, read_req(Bytes{0}, Bytes{35'000}));
  // Nominal spin-up 1.6 s + 3 s of head-load retries.
  EXPECT_NEAR(res.start.value(), 60.0 + 1.6 + 3.0, kEps);
  EXPECT_NEAR(res.fault_delay.value(), 3.0, kEps);
  EXPECT_NEAR(d.meter()[device::EnergyCategory::kSpinUp].value(), 5.0 + 7.5, kEps);
  EXPECT_EQ(d.counters().spin_up_stalls, 1u);
  EXPECT_NEAR(d.counters().stall_time.value(), 3.0, kEps);
}

TEST(FaultDisk, TimeToReadyPricesTheStall) {
  faults::DiskFaultSchedule schedule;
  schedule.spin_up_stalls = {
      {.start = Seconds{50.0}, .end = Seconds{70.0}, .extra_time = Seconds{3.0}, .extra_energy = Joules{7.5}}};
  device::Disk d;
  d.set_fault_schedule(&schedule);
  d.advance_to(Seconds{60.0});
  EXPECT_NEAR(d.time_to_ready((Seconds{60.0})).value(), 1.6 + 3.0, kEps);
  // A spin-up beginning after the window is nominal again.
  EXPECT_NEAR(d.time_to_ready((Seconds{80.0})).value(), 1.6, kEps);
}

TEST(FaultDisk, DetachedCopySharesTheSchedule) {
  faults::DiskFaultSchedule schedule;
  schedule.spin_up_stalls = {
      {.start = Seconds{50.0}, .end = Seconds{70.0}, .extra_time = Seconds{3.0}, .extra_energy = Joules{7.5}}};
  device::Disk d;
  d.set_fault_schedule(&schedule);
  d.advance_to(Seconds{60.0});
  // estimate() replays on a detached copy; the copy must still price the
  // stall, or splice re-evaluation would under-estimate a faulted disk.
  const auto est = d.estimate(Seconds{60.0}, read_req(Bytes{0}, Bytes{35'000}));
  EXPECT_NEAR(est.start.value(), 60.0 + 1.6 + 3.0, kEps);
  EXPECT_EQ(d.counters().spin_up_stalls, 0u);  // Live disk untouched.
}

TEST(FaultDevice, FarFutureScheduleIsInert) {
  // Additivity: a schedule whose windows never intersect the timeline
  // leaves results bit-identical to running with no schedule at all.
  faults::WnicFaultSchedule wnic_far;
  wnic_far.outages = {{.start = Seconds{1e6}, .end = Seconds{1e6 + 60.0}}};
  wnic_far.degradations = {{.start = Seconds{1e6}, .end = Seconds{1e6 + 60.0}, .factor = 0.5}};
  faults::DiskFaultSchedule disk_far;
  disk_far.spin_up_stalls = {
      {.start = Seconds{1e6}, .end = Seconds{1e6 + 60.0}, .extra_time = Seconds{3.0}, .extra_energy = Joules{1.0}}};

  device::Wnic w_faulted, w_plain;
  w_faulted.set_fault_schedule(&wnic_far);
  device::Disk d_faulted, d_plain;
  d_faulted.set_fault_schedule(&disk_far);

  Seconds tw = Seconds{0.0}, td = Seconds{0.0};
  for (int i = 0; i < 8; ++i) {
    const auto rf = w_faulted.service(tw, read_req(Bytes{0}, 256 * kKiB));
    const auto rp = w_plain.service(tw, read_req(Bytes{0}, 256 * kKiB));
    EXPECT_EQ(rf.completion, rp.completion);
    tw = rf.completion + Seconds{i % 2 == 0 ? 30.0 : 0.5};
    const auto df = d_faulted.service(td, read_req(static_cast<std::uint64_t>(i) * kMiB, 64 * kKiB));
    const auto dp = d_plain.service(td, read_req(static_cast<std::uint64_t>(i) * kMiB, 64 * kKiB));
    EXPECT_EQ(df.completion, dp.completion);
    td = df.completion + Seconds{i % 2 == 0 ? 30.0 : 0.5};
  }
  EXPECT_EQ(w_faulted.meter().total(), w_plain.meter().total());
  EXPECT_EQ(d_faulted.meter().total(), d_plain.meter().total());
  EXPECT_EQ(w_faulted.counters().outage_stalls, 0u);
  EXPECT_EQ(w_faulted.counters().degraded_transfers, 0u);
  EXPECT_EQ(d_faulted.counters().spin_up_stalls, 0u);
}

// ---------------------------------------------------------------------------
// SimAudit.

TEST(FaultAudit, PurityCheckPassesWhenNothingMutates) {
  faults::SimAudit audit;
  device::Disk disk;
  device::Wnic wnic;
  const auto snap = audit.capture(disk, wnic, nullptr);
  const auto est = disk.estimate(Seconds{0.0}, read_req(Bytes{0}, 64 * kKiB));  // Pure.
  EXPECT_GT(est.energy, Joules{0.0});
  EXPECT_NO_THROW(audit.check_estimate_purity(snap, disk, wnic, nullptr));
}

TEST(FaultAudit, PurityCheckCatchesLiveMutation) {
  faults::SimAudit audit;
  device::Disk disk;
  device::Wnic wnic;
  const auto snap = audit.capture(disk, wnic, nullptr);
  disk.service(Seconds{0.0}, read_req(Bytes{0}, 64 * kKiB));  // "Leaked" replay.
  EXPECT_THROW(audit.check_estimate_purity(snap, disk, wnic, nullptr),
               InternalError);
}

TEST(FaultAudit, PurityCheckCatchesRecorderLeak) {
  faults::SimAudit audit;
  device::Disk disk;
  device::Wnic wnic;
  telemetry::Recorder rec;
  const auto snap = audit.capture(disk, wnic, &rec);
  static constexpr telemetry::EventDesc kPhantom{.name = "phantom"};
  rec.instant(kPhantom, Seconds{0.0});
  EXPECT_THROW(audit.check_estimate_purity(snap, disk, wnic, &rec),
               InternalError);
}

TEST(FaultAudit, FullSimulationPassesWithAuditEnabled) {
  const auto scenario = workloads::scenario_mplayer(1);
  sim::SimConfig config;
  config.audit.enabled = true;
  config.telemetry.enabled = true;
  config.faults = faults::generate_schedule(3);
  auto policy = policies::make_policy("flexfetch", scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  sim::SimResult r;
  EXPECT_NO_THROW(r = simulator.run());
  EXPECT_GT(r.total_energy(), Joules{0.0});
}

TEST(FaultAudit, EnablingTheAuditNeverChangesResults) {
  const auto scenario = workloads::scenario_mplayer(1);
  sim::SimConfig base;
  base.faults = faults::generate_schedule(3);
  sim::SimConfig audited = base;
  audited.audit.enabled = true;

  auto run_with = [&](const sim::SimConfig& config) {
    auto policy = policies::make_policy("flexfetch", scenario.profiles,
                                        &scenario.oracle_future);
    sim::Simulator simulator(config, scenario.programs, *policy);
    return simulator.run();
  };
  const auto off = run_with(base);
  const auto on = run_with(audited);
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.disk_meter.total(), on.disk_meter.total());
  EXPECT_EQ(off.wnic_meter.total(), on.wnic_meter.total());
  EXPECT_EQ(off.syscalls, on.syscalls);
  EXPECT_EQ(off.disk_requests, on.disk_requests);
  EXPECT_EQ(off.net_requests, on.net_requests);
}

TEST(FaultAudit, TelemetryOnAndOffAgreeUnderFaults) {
  const auto scenario = workloads::scenario_mplayer(1);
  sim::SimConfig off_cfg;
  off_cfg.faults = faults::generate_schedule(5);
  sim::SimConfig on_cfg = off_cfg;
  on_cfg.telemetry.enabled = true;

  auto run_with = [&](const sim::SimConfig& config) {
    auto policy = policies::make_policy("flexfetch", scenario.profiles,
                                        &scenario.oracle_future);
    sim::Simulator simulator(config, scenario.programs, *policy);
    return simulator.run();
  };
  const auto off = run_with(off_cfg);
  const auto on = run_with(on_cfg);
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.disk_meter.total(), on.disk_meter.total());
  EXPECT_EQ(off.wnic_meter.total(), on.wnic_meter.total());
  EXPECT_EQ(off.disk_requests, on.disk_requests);
  EXPECT_EQ(off.net_requests, on.net_requests);
}

TEST(FaultAudit, PowerSpanReconciliationRunsWithTheRingAndTheAudit) {
  // on_run_end reconciles the power timelines against the meters only when
  // the ring kept every event and holds power spans; check both hold, so
  // the reconciliation really ran and passed.
  for (const auto& scenario :
       {workloads::scenario_grep_make(1), workloads::scenario_mplayer(1)}) {
    sim::SimConfig config;
    config.audit.enabled = true;
    config.telemetry.enabled = true;
    config.telemetry.ring_capacity = std::size_t{1} << 18;
    auto policy = policies::make_policy("flexfetch", scenario.profiles,
                                        &scenario.oracle_future);
    sim::Simulator simulator(config, scenario.programs, *policy);
    sim::SimResult r;
    ASSERT_NO_THROW(r = simulator.run()) << scenario.name;
    EXPECT_EQ(r.trace_events_dropped, 0u) << scenario.name;
    std::size_t disk_spans = 0;
    std::size_t wnic_spans = 0;
    for (const auto& ev : r.trace_events) {
      if (ev.phase != telemetry::Phase::kSpan) continue;
      disk_spans += ev.track == telemetry::track::kDiskPower ? 1 : 0;
      wnic_spans += ev.track == telemetry::track::kWnicPower ? 1 : 0;
    }
    EXPECT_GT(disk_spans, 0u) << scenario.name;
    EXPECT_GT(wnic_spans, 0u) << scenario.name;
  }
}

TEST(FaultAudit, RunEndRejectsAGapInAPowerTimeline) {
  // The disk idles for 3 s (well inside its spin-down timeout); the WNIC
  // stays at t = 0 with no timeline.
  device::Disk disk;
  device::Wnic wnic;
  disk.advance_to(Seconds{3.0});
  const auto idle = [](double start, double end) {
    return telemetry::TraceEvent{.name = device::to_string(device::DiskState::kIdle),
                                 .category = telemetry::Category::kDisk,
                                 .phase = telemetry::Phase::kSpan,
                                 .n_args = 0,
                                 .track = telemetry::track::kDiskPower,
                                 .seq = 0,
                                 .start = Seconds{start},
                                 .duration = Seconds{end - start},
                                 .value = 0.0,
                                 .args = {}};
  };
  const std::vector<telemetry::TraceEvent> tiled = {idle(0.0, 1.0), idle(1.0, 3.0)};
  faults::SimAudit ok;
  EXPECT_NO_THROW(ok.on_run_end(disk, wnic, tiled, 0));
  EXPECT_GT(ok.checks(), 0u);

  const std::vector<telemetry::TraceEvent> gap = {idle(0.0, 1.0), idle(2.0, 3.0)};
  faults::SimAudit audit;
  EXPECT_THROW(audit.on_run_end(disk, wnic, gap, 0), InternalError);
  // A lossy ring leaves nothing sound to reconcile.
  EXPECT_NO_THROW(audit.on_run_end(disk, wnic, gap, 1));
}

// ---------------------------------------------------------------------------
// End-to-end failover: a mid-stage disconnection flips FlexFetch from the
// network to the disk, visible in stats and the exported trace.

TEST(FaultFailover, MidStageOutageFlipsNetworkToDisk) {
  const auto scenario = workloads::scenario_mplayer(1);
  const Seconds span = scenario.programs[0].trace.end_time();

  sim::SimConfig config;
  config.faults.wnic.outages = {
      {.start = span / 3.0, .end = span / 3.0 + Seconds{60.0}}};
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;

  auto policy = policies::make_policy("flexfetch", scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  const auto r = simulator.run();

  const auto* ff = dynamic_cast<const core::FlexFetchPolicy*>(policy.get());
  ASSERT_NE(ff, nullptr);
  EXPECT_GE(ff->stats().fault_reevaluations, 1u);
  EXPECT_GE(ff->stats().fault_switches, 1u);

  bool saw_switch = false, saw_splice = false, saw_reevaluate = false;
  for (const auto& ev : r.trace_events) {
    if (std::strcmp(ev.name, "fault.switch") == 0) saw_switch = true;
    if (std::strcmp(ev.name, "fault.reevaluate") == 0) saw_reevaluate = true;
    if (std::strcmp(ev.name, "decision.splice") == 0) saw_splice = true;
  }
  EXPECT_TRUE(saw_reevaluate);
  EXPECT_TRUE(saw_switch);
  EXPECT_TRUE(saw_splice);
  EXPECT_TRUE(r.metrics.contains("ff.fault_switches"));
}

TEST(FaultFailover, StaticVariantNeverReacts) {
  const auto scenario = workloads::scenario_mplayer(1);
  const Seconds span = scenario.programs[0].trace.end_time();
  sim::SimConfig config;
  config.faults.wnic.outages = {
      {.start = span / 3.0, .end = span / 3.0 + Seconds{60.0}}};

  auto policy = policies::make_policy("flexfetch-static", scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  simulator.run();
  const auto* ff = dynamic_cast<const core::FlexFetchPolicy*>(policy.get());
  ASSERT_NE(ff, nullptr);
  EXPECT_EQ(ff->stats().fault_reevaluations, 0u);
  EXPECT_EQ(ff->stats().fault_switches, 0u);
}

}  // namespace
}  // namespace flexfetch
