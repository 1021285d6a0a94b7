#include <gtest/gtest.h>

#include "common/error.hpp"
#include "energy/loss_curve.hpp"
#include "policies/bluefs.hpp"
#include "policies/factory.hpp"
#include "policies/fixed.hpp"
#include "policies/oracle.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::policies {
namespace {

using device::DeviceKind;

trace::Trace paced_trace(int n = 30) {
  trace::TraceBuilder b("paced");
  b.process(60, 60);
  for (int i = 0; i < n; ++i) {
    b.read(1, Bytes{static_cast<std::uint64_t>(i) * 256 * 1024}, Bytes{256 * 1024});
    b.think(Seconds{4.0});
  }
  return b.build();
}

trace::Trace bursty_trace() {
  trace::TraceBuilder b("bursty");
  b.process(61, 61);
  b.read_file(1, 60 * kMiB, Bytes{128 * 1024});
  return b.build();
}

TEST(FixedPolicies, Names) {
  EXPECT_EQ(DiskOnlyPolicy{}.name(), "Disk-only");
  EXPECT_EQ(WnicOnlyPolicy{}.name(), "WNIC-only");
}

TEST(BlueFS, UsesSpinningDiskForBulkData) {
  BlueFSPolicy policy;
  const auto r = sim::simulate(sim::SimConfig{}, bursty_trace(), policy);
  // A spinning disk is cheaper per-request for 128 KiB chunks.
  EXPECT_GT(r.disk_requests, r.net_requests);
  EXPECT_GT(policy.stats().disk_selections, 0u);
}

TEST(BlueFS, AvoidsSpinningUpForSparseSmallRequests) {
  trace::TraceBuilder b("sparse");
  b.process(60, 60);
  for (int i = 0; i < 10; ++i) {
    b.read(1, Bytes{static_cast<std::uint64_t>(i) * 8192}, Bytes{8192});
    b.think(Seconds{30.0});  // Disk spins down in between.
  }
  BlueFSPolicy policy;
  const auto r = sim::simulate(sim::SimConfig{}, b.build(), policy);
  // After the disk first spins down, small requests go to the network.
  EXPECT_GT(r.net_requests, 0u);
  EXPECT_GT(policy.stats().net_selections, 0u);
}

TEST(BlueFS, GhostHintsAccumulateAndTriggerSpinUp) {
  // Many network-served requests while the disk sleeps accumulate hints
  // until the disk is proactively spun up.
  trace::TraceBuilder b("stream");
  b.process(60, 60);
  b.think(Seconds{30.0});  // Let the disk spin down first.
  for (int i = 0; i < 400; ++i) {
    b.read(1, Bytes{static_cast<std::uint64_t>(i) * 256 * 1024}, Bytes{256 * 1024});
    b.think(Seconds{1.0});
  }
  BlueFSPolicy policy;
  sim::simulate(sim::SimConfig{}, b.build(), policy);
  EXPECT_GT(policy.stats().hints_issued, Joules{0.0});
  EXPECT_GT(policy.stats().ghost_spin_ups, 0u);
}

TEST(BlueFS, HintsDecayOverTime) {
  BlueFSConfig config;
  config.hint_half_life = Seconds{1.0};
  BlueFSPolicy policy(config);
  // One isolated network request while the disk sleeps issues a hint;
  // after many half-lives the pending amount must be negligible.
  trace::TraceBuilder b("one");
  b.process(60, 60);
  b.think(Seconds{30.0});
  b.read(1, Bytes{0}, Bytes{256 * 1024});
  b.think(Seconds{60.0});
  b.read(1, Bytes{256 * 1024}, Bytes{256 * 1024});
  sim::simulate(sim::SimConfig{}, b.build(), policy);
  EXPECT_LT(policy.pending_hints(), policy.stats().hints_issued);
}

TEST(BlueFS, RejectsNegativeHalfLife) {
  BlueFSConfig c;
  c.hint_half_life = -Seconds{1.0};
  EXPECT_THROW(BlueFSPolicy{c}, ConfigError);
}

TEST(Oracle, NameAndBehaviour) {
  const trace::Trace t = paced_trace();
  OraclePolicy policy(t);
  EXPECT_EQ(policy.name(), "Oracle");
  const auto r = sim::simulate(sim::SimConfig{}, t, policy);
  // Perfect knowledge of the paced workload: network.
  EXPECT_GT(r.net_requests, 0u);
}

TEST(Oracle, CompetitiveWithFixedPoliciesOnBothShapes) {
  for (const trace::Trace& t : {paced_trace(), bursty_trace()}) {
    OraclePolicy oracle(t);
    const auto oracle_result = sim::simulate(sim::SimConfig{}, t, oracle);
    DiskOnlyPolicy disk;
    const auto disk_result = sim::simulate(sim::SimConfig{}, t, disk);
    WnicOnlyPolicy wnic;
    const auto wnic_result = sim::simulate(sim::SimConfig{}, t, wnic);
    const Joules best =
        std::min(disk_result.total_energy(), wnic_result.total_energy());
    // The oracle should be within a small tolerance of the better fixed
    // policy (it can also beat both by switching mid-run).
    EXPECT_LT(oracle_result.total_energy(), best * 1.10) << t.name();
  }
}

TEST(Factory, BuildsEveryKnownPolicy) {
  const trace::Trace t = paced_trace(5);
  const std::vector<core::Profile> profiles{
      core::Profile::from_trace(t, Seconds{0.020})};
  for (const std::string name :
       {"disk-only", "wnic-only", "bluefs", "flexfetch", "flexfetch-static",
        "oracle"}) {
    auto policy = make_policy(name, profiles, &t);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_FALSE(policy->name().empty());
  }
}

TEST(Factory, PolicyNamesMatchPaperLabels) {
  const trace::Trace t = paced_trace(5);
  const std::vector<core::Profile> profiles{
      core::Profile::from_trace(t, Seconds{0.020})};
  EXPECT_EQ(make_policy("flexfetch", profiles)->name(), "FlexFetch");
  EXPECT_EQ(make_policy("flexfetch-static", profiles)->name(),
            "FlexFetch-static");
  EXPECT_EQ(make_policy("bluefs")->name(), "BlueFS");
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_policy("nonsense"), ConfigError);
}

TEST(Factory, ParsesAdaptiveSpecs) {
  const trace::Trace t = paced_trace(5);
  const std::vector<core::Profile> profiles{
      core::Profile::from_trace(t, Seconds{0.020})};
  EXPECT_EQ(make_policy("flexfetch-adaptive:constant@0.25", profiles)->name(),
            "FlexFetch");
  EXPECT_EQ(make_policy("flexfetch-adaptive:linear", profiles)->name(),
            "FlexFetch-adaptive(linear@0.05:0.5)");
  EXPECT_EQ(make_policy("flexfetch-adaptive:step@0.3:0.1:0.6", profiles)
                ->name(),
            "FlexFetch-adaptive(step@0.3:0.1:0.6)");
  EXPECT_EQ(make_policy("flexfetch-adaptive:horizon-ratio", profiles)->name(),
            "FlexFetch-adaptive(horizon-ratio@1800:0.05:0.5)");
  // A bare constant inherits the cell's loss_rate knob.
  EXPECT_EQ(
      make_policy("flexfetch-adaptive:constant", profiles, nullptr, 0.4)
          ->name(),
      "FlexFetch");
}

TEST(Factory, AdaptiveRejectsBadSpecsAndMissingProfiles) {
  const trace::Trace t = paced_trace(5);
  const std::vector<core::Profile> profiles{
      core::Profile::from_trace(t, Seconds{0.020})};
  EXPECT_THROW(make_policy("flexfetch-adaptive:parabolic", profiles),
               ConfigError);
  EXPECT_THROW(make_policy("flexfetch-adaptive:linear@0.1", profiles),
               ConfigError);
  EXPECT_THROW(make_policy("flexfetch-adaptive:linear"), ConfigError);
}

TEST(Factory, ConstantCurveReproducesStaticFlexFetch) {
  // "flexfetch-adaptive:constant@0.25" spells the paper's FlexFetch: it
  // must make the same decisions, spend the same energy and take the same
  // time as plain "flexfetch".
  for (const trace::Trace& t : {paced_trace(), bursty_trace()}) {
    const std::vector<core::Profile> profiles{
        core::Profile::from_trace(t, Seconds{0.020})};
    auto fixed = make_policy("flexfetch", profiles);
    auto adaptive =
        make_policy("flexfetch-adaptive:constant@0.25", profiles);
    const auto r_fixed = sim::simulate(sim::SimConfig{}, t, *fixed);
    const auto r_adaptive = sim::simulate(sim::SimConfig{}, t, *adaptive);
    EXPECT_EQ(r_fixed.total_energy().value(),
              r_adaptive.total_energy().value())
        << t.name();
    EXPECT_EQ(r_fixed.makespan.value(), r_adaptive.makespan.value())
        << t.name();
    EXPECT_EQ(r_fixed.disk_requests, r_adaptive.disk_requests) << t.name();
    EXPECT_EQ(r_fixed.net_requests, r_adaptive.net_requests) << t.name();
  }
}

TEST(Factory, AdaptiveDecisionsUseCurveSampledRates) {
  // A near-empty battery with a linear curve must decide with a rate near
  // loss_rate_empty; the decision log pins the sampled values.
  const trace::Trace t = paced_trace();
  const std::vector<core::Profile> profiles{
      core::Profile::from_trace(t, Seconds{0.020})};
  core::FlexFetchConfig config;
  config.loss_curve = energy::make_loss_curve("linear@0.05:0.5");
  core::FlexFetchPolicy policy(config, profiles);
  sim::SimConfig sc;
  sc.battery.capacity = Joules{50000.0};
  sc.battery.initial_fraction = 0.05;
  sim::simulate(sc, t, policy);
  ASSERT_FALSE(policy.decision_log().empty());
  for (const auto& rec : policy.decision_log()) {
    // Battery in [0, 0.05] -> linear rate in [0.4775, 0.5].
    EXPECT_GE(rec.loss_rate, 0.45);
    EXPECT_LE(rec.loss_rate, 0.5);
  }
}

TEST(Factory, FlexFetchWithoutProfilesThrows) {
  EXPECT_THROW(make_policy("flexfetch"), ConfigError);
}

TEST(Factory, OracleWithoutFutureThrows) {
  EXPECT_THROW(make_policy("oracle"), ConfigError);
}

TEST(Factory, StandardPolicySetMatchesPaperOrder) {
  const auto names = standard_policy_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "flexfetch");
  EXPECT_EQ(names[1], "bluefs");
  EXPECT_EQ(names[2], "disk-only");
  EXPECT_EQ(names[3], "wnic-only");
}

}  // namespace
}  // namespace flexfetch::policies
