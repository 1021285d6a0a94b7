#include "device/adaptive_timeout.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::device {
namespace {

DeviceRequest small_read(Bytes lba = Bytes{0}) {
  return DeviceRequest{.lba = lba, .size = Bytes{4096}, .is_write = false};
}

TEST(AdaptiveTimeout, AdoptsDiskTimeoutInitially) {
  Disk disk;
  AdaptiveTimeoutController c;
  const auto r = disk.service(Seconds{0.0}, small_read());
  c.observe(disk, r);
  EXPECT_DOUBLE_EQ(c.current_timeout().value(), 20.0);
}

TEST(AdaptiveTimeout, PrematureSpinDownDoublesTimeout) {
  Disk disk;
  AdaptiveTimeoutController c;
  auto r = disk.service(Seconds{0.0}, small_read());
  c.observe(disk, r);
  // Next request 22 s later: the disk spun down at 20 s, stayed down ~2 s
  // (< break-even 5.07 s) -> premature -> timeout doubles.
  r = disk.service(r.completion + Seconds{22.0}, small_read(1 * kGiB));
  c.observe(disk, r);
  EXPECT_DOUBLE_EQ(c.current_timeout().value(), 40.0);
  EXPECT_EQ(c.stats().premature_spin_downs, 1u);
  EXPECT_DOUBLE_EQ(disk.params().spin_down_timeout.value(), 40.0);
}

TEST(AdaptiveTimeout, JustifiedSpinDownDecays) {
  Disk disk;
  AdaptiveTimeoutController c;
  auto r = disk.service(Seconds{0.0}, small_read());
  c.observe(disk, r);
  // 200 s gap: the spin-down clearly paid off -> timeout decays slightly.
  r = disk.service(r.completion + Seconds{200.0}, small_read(1 * kGiB));
  c.observe(disk, r);
  EXPECT_NEAR(c.current_timeout().value(), 20.0 * 0.95, 1e-9);
  EXPECT_EQ(c.stats().premature_spin_downs, 0u);
}

TEST(AdaptiveTimeout, BusyPeriodsDecayTowardFloor) {
  AdaptiveTimeoutConfig config;
  config.min_timeout = Seconds{15.0};
  Disk disk;
  AdaptiveTimeoutController c(config);
  auto r = disk.service(Seconds{0.0}, small_read());
  c.observe(disk, r);
  for (int i = 0; i < 200; ++i) {
    r = disk.service(r.completion + Seconds{1.0}, small_read());  // Never idle long.
    c.observe(disk, r);
  }
  EXPECT_NEAR(c.current_timeout().value(), 15.0, 1e-9);  // Clamped at the floor.
}

TEST(AdaptiveTimeout, CapAtMaxTimeout) {
  AdaptiveTimeoutConfig config;
  config.max_timeout = Seconds{50.0};
  Disk disk;
  AdaptiveTimeoutController c(config);
  auto r = disk.service(Seconds{0.0}, small_read());
  c.observe(disk, r);
  // Repeated premature cycles: 20 -> 40 -> 50 (cap).
  for (int i = 0; i < 4; ++i) {
    const Seconds gap = c.current_timeout() + Seconds{2.0};  // Always premature.
    r = disk.service(r.completion + gap, small_read(1 * kGiB));
    c.observe(disk, r);
  }
  EXPECT_DOUBLE_EQ(c.current_timeout().value(), 50.0);
}

TEST(AdaptiveTimeout, RaisedTimeoutStopsTheThrash) {
  // The Thunderbird pattern: requests every ~22 s. With the fixed 20 s
  // timeout the disk spins down and right back up each time; once the
  // controller doubles the timeout the thrash ends.
  Disk fixed;
  Disk adaptive;
  AdaptiveTimeoutController c;
  ServiceResult rf = fixed.service(Seconds{0.0}, small_read());
  ServiceResult ra = adaptive.service(Seconds{0.0}, small_read());
  c.observe(adaptive, ra);
  for (int i = 1; i <= 20; ++i) {
    rf = fixed.service(rf.completion + Seconds{22.0}, small_read(static_cast<std::uint64_t>(i) * kMiB));
    ra = adaptive.service(ra.completion + Seconds{22.0}, small_read(static_cast<std::uint64_t>(i) * kMiB));
    c.observe(adaptive, ra);
  }
  EXPECT_LT(adaptive.counters().spin_ups + 5, fixed.counters().spin_ups);
  EXPECT_LT(adaptive.meter().total(), fixed.meter().total());
}

TEST(AdaptiveTimeout, ConfigValidation) {
  AdaptiveTimeoutConfig c;
  c.min_timeout = Seconds{0.0};
  EXPECT_THROW(AdaptiveTimeoutController{c}, ConfigError);
  c = AdaptiveTimeoutConfig{};
  c.max_timeout = Seconds{1.0};  // Below min.
  EXPECT_THROW(AdaptiveTimeoutController{c}, ConfigError);
  c = AdaptiveTimeoutConfig{};
  c.increase_factor = 1.0;
  EXPECT_THROW(AdaptiveTimeoutController{c}, ConfigError);
  c = AdaptiveTimeoutConfig{};
  c.decay_factor = 0.0;
  EXPECT_THROW(AdaptiveTimeoutController{c}, ConfigError);
}

TEST(AdaptiveTimeout, SimulatorIntegrationReducesThrashEnergy) {
  // Sparse 22 s reads (straddling the fixed timeout) under Disk-only.
  trace::TraceBuilder b("sparse");
  b.process(60, 60);
  for (int i = 0; i < 20; ++i) {
    b.read(1, Bytes{static_cast<std::uint64_t>(i) * 64 * 1024}, Bytes{64 * 1024});
    b.think(Seconds{22.0});
  }
  const trace::Trace t = b.build();

  policies::DiskOnlyPolicy p1;
  const auto fixed = sim::simulate(sim::SimConfig{}, t, p1);

  sim::SimConfig config;
  config.adaptive_timeout.emplace();
  policies::DiskOnlyPolicy p2;
  const auto adaptive = sim::simulate(config, t, p2);

  EXPECT_LT(adaptive.disk_counters.spin_ups, fixed.disk_counters.spin_ups);
  EXPECT_LT(adaptive.disk_energy(), fixed.disk_energy());
}

TEST(Disk, SetSpinDownTimeoutValidates) {
  Disk d;
  EXPECT_THROW(d.set_spin_down_timeout(Seconds{0.0}), ConfigError);
  d.set_spin_down_timeout(Seconds{5.0});
  EXPECT_DOUBLE_EQ(d.params().spin_down_timeout.value(), 5.0);
}

}  // namespace
}  // namespace flexfetch::device
