// Time-varying WNIC bandwidth (roaming): schedule semantics and the
// adaptive response FlexFetch mounts when the signal degrades mid-run.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/flexfetch.hpp"
#include "device/wnic.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::device {
namespace {

WnicParams scheduled(std::vector<BandwidthStep> steps) {
  WnicParams p = WnicParams::cisco_aironet350();
  p.bandwidth_schedule = std::move(steps);
  return p;
}

TEST(Roaming, EmptyScheduleUsesBaseRate) {
  const WnicParams p = WnicParams::cisco_aironet350();
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{0.0})).value(), units::mbps(11.0).value());
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{1e6})).value(), units::mbps(11.0).value());
}

TEST(Roaming, StepsApplyFromTheirStartTime) {
  const WnicParams p = scheduled({{Seconds{100.0}, units::mbps(2.0)},
                                  {Seconds{200.0}, units::mbps(5.5)}});
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{0.0})).value(), units::mbps(11.0).value());   // Base.
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{100.0})).value(), units::mbps(2.0).value());  // Inclusive.
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{150.0})).value(), units::mbps(2.0).value());
  EXPECT_DOUBLE_EQ(p.bandwidth_at((Seconds{500.0})).value(), units::mbps(5.5).value());
}

TEST(Roaming, UnsortedScheduleRejected) {
  WnicParams p = scheduled({{Seconds{200.0}, units::mbps(2.0)},
                            {Seconds{100.0}, units::mbps(5.5)}});
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Roaming, ZeroBandwidthStepRejected) {
  WnicParams p = scheduled({{Seconds{100.0}, BytesPerSecond{0.0}}});
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Roaming, ServiceUsesTheRateInEffect) {
  Wnic w(scheduled({{Seconds{10.0}, units::mbps(1.0)}}));
  const DeviceRequest req{.lba = Bytes{0}, .size = Bytes{125'000}, .is_write = false};
  const auto fast = w.service(Seconds{0.0}, req);   // At 11 Mbps.
  const auto slow = w.service(Seconds{20.0}, req);  // At 1 Mbps.
  const Seconds fast_xfer = fast.completion - fast.start;
  const Seconds slow_xfer = slow.completion - slow.start;
  EXPECT_GT(slow_xfer, 5.0 * fast_xfer);
}

TEST(Roaming, EstimatorSeesTheSchedule) {
  // A copied device carries the schedule, so FlexFetch's estimates track
  // the current signal automatically.
  Wnic w(scheduled({{Seconds{10.0}, units::mbps(1.0)}}));
  const DeviceRequest req{.lba = Bytes{0}, .size = Bytes{1'000'000}, .is_write = false};
  const auto before = w.estimate(Seconds{0.0}, req);
  const auto after = w.estimate(Seconds{20.0}, req);
  EXPECT_GT(after.energy, 3.0 * before.energy);
}

TEST(Roaming, FlexFetchAbandonsADegradedLink) {
  // Paced network-friendly workload; the signal collapses to 1 Mbps
  // halfway. FlexFetch must shift to the disk for the degraded half.
  trace::TraceBuilder b("paced");
  b.process(60, 60);
  for (int i = 0; i < 40; ++i) {
    b.read(1, static_cast<std::uint64_t>(i) * 4 * kMiB, 4 * kMiB);
    b.think(Seconds{40.0});
  }
  const trace::Trace t = b.build();

  sim::SimConfig config;
  config.wnic.bandwidth_schedule = {{Seconds{800.0}, units::mbps(1.0)}};

  core::FlexFetchPolicy ff(core::FlexFetchConfig{},
                           core::Profile::from_trace(t, Seconds{0.020}));
  const auto programs =
      sim::compile_programs({sim::ProgramSpec{.trace = t, .name = "paced"}});
  sim::Simulator sf(config, programs, ff);
  const auto ff_result = sf.run();

  policies::WnicOnlyPolicy wnic_only;
  sim::Simulator sw(config, programs, wnic_only);
  const auto wnic_result = sw.run();

  // Some disk traffic appears after the collapse...
  EXPECT_GT(ff_result.disk_bytes, Bytes{0});
  // ...and FlexFetch clearly beats staying on the degraded link.
  EXPECT_LT(ff_result.total_energy(), 0.9 * wnic_result.total_energy());
}

}  // namespace
}  // namespace flexfetch::device
