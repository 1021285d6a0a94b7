#include "core/flexfetch.hpp"

#include <gtest/gtest.h>

#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::core {
namespace {

using device::DeviceKind;

/// Paced workload: a small read every 4 s for `n` cycles. Sparse access
/// makes the disk idle expensively -> the network should win.
trace::Trace paced_trace(int n = 30, Bytes chunk = Bytes{256 * 1024}) {
  trace::TraceBuilder b("paced");
  b.process(60, 60);
  for (int i = 0; i < n; ++i) {
    b.read(1, chunk * static_cast<std::uint64_t>(i), chunk);
    b.think(Seconds{4.0});
  }
  return b.build();
}

/// Bursty workload: one large sequential scan. The disk's bandwidth
/// advantage dominates -> the disk should win.
trace::Trace bursty_trace(Bytes total = 60 * kMiB) {
  trace::TraceBuilder b("bursty");
  b.process(61, 61);
  b.read_file(1, total, Bytes{128 * 1024});
  return b.build();
}

Profile profile_of(const trace::Trace& t) {
  return Profile::from_trace(t, Seconds{0.020});
}

sim::SimResult run_policy(sim::Policy& policy, const trace::Trace& t) {
  return sim::simulate(sim::SimConfig{}, t, policy);
}

TEST(FlexFetch, NamesDistinguishVariants) {
  FlexFetchPolicy adaptive(FlexFetchConfig{}, Profile{});
  FlexFetchPolicy static_variant(FlexFetchConfig::static_variant(), Profile{});
  EXPECT_EQ(adaptive.name(), "FlexFetch");
  EXPECT_EQ(static_variant.name(), "FlexFetch-static");
}

TEST(FlexFetch, RejectsBadConfig) {
  FlexFetchConfig c;
  c.loss_curve = nullptr;
  EXPECT_THROW(FlexFetchPolicy(c, Profile{}), ConfigError);
  c = FlexFetchConfig{};
  c.stage_min_length = Seconds{0.0};
  EXPECT_THROW(FlexFetchPolicy(c, Profile{}), ConfigError);
}

TEST(FlexFetch, PacedWorkloadGoesToNetwork) {
  const trace::Trace t = paced_trace();
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  const auto r = run_policy(policy, t);
  EXPECT_GT(r.net_requests, r.disk_requests);
  ASSERT_FALSE(policy.stage_choices().empty());
  EXPECT_EQ(policy.stage_choices()[0], DeviceKind::kNetwork);
}

TEST(FlexFetch, BurstyWorkloadGoesToDisk) {
  const trace::Trace t = bursty_trace();
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  const auto r = run_policy(policy, t);
  EXPECT_GT(r.disk_requests, 0u);
  EXPECT_EQ(r.net_requests, 0u);
  EXPECT_EQ(policy.stage_choices()[0], DeviceKind::kDisk);
}

TEST(FlexFetch, PacedBeatsDiskOnlyOnEnergy) {
  const trace::Trace t = paced_trace();
  FlexFetchPolicy ff(FlexFetchConfig{}, profile_of(t));
  const auto ff_result = run_policy(ff, t);
  policies::DiskOnlyPolicy disk_only;
  const auto disk_result = run_policy(disk_only, t);
  EXPECT_LT(ff_result.total_energy(), disk_result.total_energy());
}

TEST(FlexFetch, BurstyBeatsWnicOnlyOnEnergy) {
  const trace::Trace t = bursty_trace();
  FlexFetchPolicy ff(FlexFetchConfig{}, profile_of(t));
  const auto ff_result = run_policy(ff, t);
  policies::WnicOnlyPolicy wnic_only;
  const auto wnic_result = run_policy(wnic_only, t);
  EXPECT_LT(ff_result.total_energy(), wnic_result.total_energy());
}

TEST(FlexFetch, EmptyProfileUsesDefaultSource) {
  FlexFetchConfig config;
  config.default_source = DeviceKind::kNetwork;
  config.adapt_stage_audit = false;  // Keep the default in force.
  FlexFetchPolicy policy(config, Profile{});
  const auto r = run_policy(policy, paced_trace(8));
  EXPECT_GT(r.net_requests, 0u);
  EXPECT_EQ(r.disk_requests, 0u);
}

TEST(FlexFetch, StagesAdvanceWithTheRun) {
  const trace::Trace t = paced_trace(60);  // ~4 min: several 40 s stages.
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  EXPECT_GE(policy.stats().stages_entered, 4u);
  EXPECT_EQ(policy.stage_choices().size(), policy.stats().stages_entered);
}

TEST(FlexFetch, RecordedProfileReflectsTheRun) {
  const trace::Trace t = paced_trace(10);
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  const Profile& recorded = policy.recorded_profile();
  EXPECT_EQ(recorded.size(), 10u);  // One burst per paced read.
  EXPECT_EQ(recorded.total_bytes(), Bytes{10u * 256u * 1024u});
}

TEST(FlexFetch, DecisionLogIsPopulated) {
  const trace::Trace t = paced_trace(20);
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  ASSERT_FALSE(policy.decision_log().empty());
  const auto& first = policy.decision_log().front();
  EXPECT_EQ(first.origin, DecisionRecord::Origin::kStageEntry);
  EXPECT_GT(first.disk.energy, Joules{0.0});
  EXPECT_GT(first.network.energy, Joules{0.0});
}

TEST(FlexFetch, BurstThresholdDerivedFromDiskWhenUnset) {
  const trace::Trace t = paced_trace(5);
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  // DK23DA access time: 13 ms seek + 7 ms rotation.
  EXPECT_DOUBLE_EQ(policy.config().burst_threshold.value(), 0.020);
}

TEST(FlexFetch, FreeRiderRedirectsWhenPinnedProgramHoldsDisk) {
  // Profiled paced program (network-favorable) + a pinned program reading
  // from the disk every 2 s, keeping it spinning.
  const trace::Trace paced = paced_trace(30);
  trace::TraceBuilder pinned_builder("pinned");
  pinned_builder.process(70, 70);
  for (int i = 0; i < 60; ++i) {
    pinned_builder.read(99, Bytes{static_cast<std::uint64_t>(i) * 64 * 1024}, Bytes{64 * 1024});
    pinned_builder.think(Seconds{2.0});
  }
  std::vector<sim::ProgramSpec> programs;
  programs.push_back(sim::ProgramSpec{.trace = paced, .name = "paced"});
  programs.push_back(sim::ProgramSpec{.trace = pinned_builder.build(),
                                      .name = "pinned",
                                      .profiled = false,
                                      .disk_pinned = true});
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(paced));
  sim::Simulator sim(sim::SimConfig{}, std::move(programs), policy);
  sim.run();
  EXPECT_GT(policy.stats().free_rider_redirects, 0u);
}

TEST(FlexFetch, StaticVariantNeverAdapts) {
  const trace::Trace t = paced_trace(30);
  FlexFetchPolicy policy(FlexFetchConfig::static_variant(), profile_of(t));
  run_policy(policy, t);
  const auto& s = policy.stats();
  EXPECT_EQ(s.splice_reevaluations, 0u);
  EXPECT_EQ(s.audit_overrides, 0u);
  EXPECT_EQ(s.free_rider_redirects, 0u);
  EXPECT_EQ(s.cache_filtered_requests, 0u);
}

TEST(FlexFetch, AuditCorrectsAStaleProfile) {
  // Profile says: tiny reads every 30 s (network-favorable). The actual
  // run scans 20 MiB every 5 s (disk-favorable).
  trace::TraceBuilder stale("app");
  stale.process(60, 60);
  for (int i = 0; i < 12; ++i) {
    stale.read(1, Bytes{static_cast<std::uint64_t>(i) * 8192}, Bytes{8192});
    stale.think(Seconds{30.0});
  }
  trace::TraceBuilder actual_builder("app");
  actual_builder.process(60, 60);
  for (int i = 0; i < 10; ++i) {
    // Distinct 20 MiB files so the buffer cache cannot absorb the run.
    actual_builder.read_file(100 + static_cast<trace::Inode>(i), 20 * kMiB,
                             Bytes{128 * 1024});
    actual_builder.think(Seconds{5.0});
  }
  const trace::Trace actual = actual_builder.build();
  const trace::Trace stale_trace = stale.build();

  FlexFetchPolicy adaptive(FlexFetchConfig{}, profile_of(stale_trace));
  const auto adaptive_result = run_policy(adaptive, actual);
  FlexFetchPolicy static_variant(FlexFetchConfig::static_variant(),
                                 profile_of(stale_trace));
  const auto static_result = run_policy(static_variant, actual);

  EXPECT_GT(adaptive.stats().audit_overrides, 0u);
  EXPECT_LT(adaptive_result.total_energy(), static_result.total_energy());
}

TEST(FlexFetch, CacheFilterDropsWarmRequests) {
  // A two-phase workload whose second phase re-reads the first phase's
  // data: phases are separate 40 s stages, so at the second stage's entry
  // the profiled requests are cache-resident and must be filtered from the
  // estimates (Section 2.3.2).
  trace::TraceBuilder b("warm");
  b.process(60, 60);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 10; ++i) {
      b.read(1, Bytes{static_cast<std::uint64_t>(i) * 16 * 1024}, Bytes{16 * 1024});
      b.think(Seconds{4.0});
    }
  }
  const trace::Trace t = b.build();
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  EXPECT_GT(policy.stats().cache_filtered_requests, 0u);
}

TEST(FlexFetch, MultiProfileConstructorMerges) {
  const trace::Trace a = paced_trace(5);
  trace::TraceBuilder bb("b");
  bb.process(61, 61);
  bb.at(Seconds{100.0});
  bb.read(2, Bytes{0}, Bytes{4096});
  const std::vector<Profile> profiles{profile_of(a), profile_of(bb.build())};
  FlexFetchPolicy policy(FlexFetchConfig{}, profiles);
  run_policy(policy, a);  // Merged profile drives the run.
  EXPECT_GE(policy.stats().stages_entered, 1u);
}

TEST(FlexFetch, SpliceReevaluationsFireOnVolumeProgress) {
  const trace::Trace t = paced_trace(30);
  FlexFetchPolicy policy(FlexFetchConfig{}, profile_of(t));
  run_policy(policy, t);
  EXPECT_GT(policy.stats().splice_reevaluations, 0u);
}

TEST(FlexFetch, LossRateGatesTheNetwork) {
  // A workload where the network saves energy at a noticeable slowdown:
  // moderate bursts with moderate gaps. A zero loss rate must refuse the
  // slower network; a generous one may accept it.
  trace::TraceBuilder b("mix");
  b.process(60, 60);
  for (int i = 0; i < 20; ++i) {
    b.read_file(1 + static_cast<trace::Inode>(i), 1 * kMiB, Bytes{128 * 1024});
    b.think(Seconds{6.0});
  }
  const trace::Trace t = b.build();

  FlexFetchConfig strict;
  strict.loss_curve = std::make_shared<const energy::ConstantCurve>(0.0);
  FlexFetchPolicy strict_policy(strict, profile_of(t));
  const auto strict_result = run_policy(strict_policy, t);

  FlexFetchConfig loose;
  loose.loss_curve = std::make_shared<const energy::ConstantCurve>(10.0);
  FlexFetchPolicy loose_policy(loose, profile_of(t));
  const auto loose_result = run_policy(loose_policy, t);

  // Strict: network only if it is also faster; here 1 MiB bursts at
  // 11 Mbps are clearly slower, so the disk must carry more traffic under
  // the strict rate than under the loose one.
  EXPECT_GE(strict_result.disk_bytes, loose_result.disk_bytes);
}

}  // namespace
}  // namespace flexfetch::core
