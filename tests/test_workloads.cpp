#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fleet/catalog.hpp"
#include "fleet/runner.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::workloads {
namespace {

TEST(Generators, GrepMatchesTable3Inventory) {
  const trace::Trace t = grep_trace();
  const auto s = t.stats();
  EXPECT_EQ(s.distinct_files, 1332u);  // Table 3: 1332 files.
  // Table 3: 50.4 MB footprint (within a page-rounding tolerance).
  EXPECT_NEAR(s.footprint.as_double(), 50.4e6, 0.15 * 50.4e6);
  EXPECT_EQ(s.writes, 0u);  // grep only reads.
}

TEST(Generators, GrepIsBursty) {
  const trace::Trace t = grep_trace();
  // The whole scan completes within seconds of trace time: one I/O burst
  // storm, per Section 3.3.1 ("a very short period").
  EXPECT_LT(t.stats().duration, Seconds{30.0});
}

TEST(Generators, MakeHasComputeThinkTimes) {
  const trace::Trace t = make_trace();
  const auto s = t.stats();
  // "building Linux kernel ... takes several minutes".
  EXPECT_GT(s.duration, Seconds{5 * 60.0});
  EXPECT_LT(s.duration, Seconds{30 * 60.0});
  EXPECT_GT(s.writes, 0u);  // Object files are written.
  EXPECT_GT(s.distinct_files, 700u);
}

TEST(Generators, MakeReusesHeaders) {
  const trace::Trace t = make_trace();
  const auto s = t.stats();
  // Header re-reads mean bytes_read exceeds the read footprint.
  EXPECT_GT(s.bytes_read, s.footprint / 2);
}

TEST(Generators, XmmsIsPacedByBitrate) {
  XmmsParams p;
  const trace::Trace t = xmms_trace(p);
  const auto s = t.stats();
  // 47.9 MB at 128 kbps is ~50 minutes of music.
  const double expected_duration =
      s.bytes_read.as_double() / (128000.0 / 8.0);
  EXPECT_NEAR(s.duration.value(), expected_duration, 0.2 * expected_duration);
  EXPECT_EQ(s.distinct_files, 116u);
}

TEST(Generators, XmmsMaxDurationCapsTheTrace) {
  XmmsParams p;
  p.max_duration = Seconds{60.0};
  const trace::Trace t = xmms_trace(p);
  EXPECT_LE(t.end_time(), Seconds{70.0});
  EXPECT_GT(t.size(), 0u);
}

TEST(Generators, MplayerMatchesTable3) {
  const trace::Trace t = mplayer_trace();
  const auto s = t.stats();
  EXPECT_EQ(s.distinct_files, 121u);  // 3 movies + 118 aux files.
  EXPECT_NEAR(s.footprint.as_double(), 136.3e6, 0.2 * 136.3e6);
}

TEST(Generators, MplayerIsSparseAfterStartup) {
  const trace::Trace t = mplayer_trace();
  // Playback is paced: the trace spans minutes, not seconds.
  EXPECT_GT(t.stats().duration, Seconds{5 * 60.0});
}

TEST(Generators, ThunderbirdHasTwoPhases) {
  const trace::Trace t = thunderbird_trace();
  const auto s = t.stats();
  EXPECT_EQ(s.distinct_files, 283u);  // Table 3.
  EXPECT_NEAR(s.footprint.as_double(), 188.1e6, 0.2 * 188.1e6);
  // Phase 1 (reading with think times) dominates the duration; phase 2
  // (search) dominates the bytes.
  EXPECT_GT(s.duration, Seconds{120.0});
  EXPECT_GT(s.bytes_read, static_cast<Bytes>(100e6));
}

TEST(Generators, AcroreadCurrentRunScans20MBFiles) {
  const trace::Trace t = acroread_trace();
  const auto extents = t.file_extents();
  EXPECT_EQ(extents.size(), 10u);  // Table 3: 10 files.
  for (const auto& [ino, extent] : extents) {
    EXPECT_EQ(extent, static_cast<Bytes>(20e6));
  }
}

TEST(Generators, AcroreadStaleProfileRunIsLighter) {
  const trace::Trace stale = acroread_trace(AcroreadParams::stale_profile_run());
  const trace::Trace current = acroread_trace();
  EXPECT_LT(stale.stats().bytes_read, current.stats().bytes_read / 5);
  // Stale run pauses 25 s (beyond the 20 s disk timeout); current run 10 s.
  EXPECT_GT(stale.stats().duration, current.stats().duration * 0.8);
}

TEST(Generators, SameSeedsReproduceSameTrace) {
  const trace::Trace a = grep_trace(GrepParams{}, 5, 9);
  const trace::Trace b = grep_trace(GrepParams{}, 5, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Generators, RunSeedChangesThinkTimesOnly) {
  const trace::Trace a = mplayer_trace(MplayerParams{}, 5, 1);
  const trace::Trace b = mplayer_trace(MplayerParams{}, 5, 2);
  // Same files (structure seed), different timing (run seed).
  EXPECT_EQ(a.file_set(), b.file_set());
  EXPECT_NE(a.end_time(), b.end_time());
}

TEST(Generators, StructureSeedChangesFileSizes) {
  const trace::Trace a = grep_trace(GrepParams{}, 1, 1);
  const trace::Trace b = grep_trace(GrepParams{}, 2, 1);
  EXPECT_NE(a.file_extents(), b.file_extents());
}

TEST(Scenarios, AllFiveArePresent) {
  const auto scenarios = all_scenarios(1);
  ASSERT_EQ(scenarios.size(), 5u);
  EXPECT_EQ(scenarios[0].name, "grep+make");
  EXPECT_EQ(scenarios[1].name, "mplayer");
  EXPECT_EQ(scenarios[2].name, "thunderbird");
  EXPECT_EQ(scenarios[3].name, "grep+make/xmms");
  EXPECT_EQ(scenarios[4].name, "acroread(stale-profile)");
}

TEST(Scenarios, GrepMakeSequencing) {
  const auto s = scenario_grep_make(1);
  ASSERT_EQ(s.programs.size(), 2u);
  // make starts after grep ends in the trace timeline.
  EXPECT_GT(s.programs[1].trace.start_time(),
            s.programs[0].trace.end_time());
  EXPECT_EQ(s.profiles.size(), 2u);
  EXPECT_FALSE(s.oracle_future.empty());
}

TEST(Scenarios, ProfilesComeFromADifferentRun) {
  const auto s = scenario_mplayer(1);
  ASSERT_EQ(s.profiles.size(), 1u);
  // Same files, different timing: profile bytes match the eval footprint
  // closely but not the timestamps.
  const auto eval_stats = s.programs[0].trace.stats();
  EXPECT_NEAR(s.profiles[0].total_bytes().as_double(),
              eval_stats.bytes_read.as_double(), 0.1 * 136e6);
}

TEST(Scenarios, ForcedSpinupHasPinnedXmms) {
  const auto s = scenario_forced_spinup(1);
  ASSERT_EQ(s.programs.size(), 3u);
  const auto& xmms = s.programs[2];
  EXPECT_EQ(xmms.name, "xmms");
  EXPECT_FALSE(xmms.profiled);
  EXPECT_TRUE(xmms.disk_pinned);
  // xmms plays for the duration of the programming session.
  EXPECT_GT(xmms.trace.end_time(),
            s.programs[1].trace.end_time() * 0.8);
}

TEST(Scenarios, StaleAcroreadProfileDiffersFromRun) {
  const auto s = scenario_stale_acroread(1);
  ASSERT_EQ(s.profiles.size(), 1u);
  const Bytes run_bytes = s.programs[0].trace.stats().bytes_read;
  EXPECT_LT(s.profiles[0].total_bytes(), run_bytes / 5);
}

TEST(Scenarios, DifferentSeedsProduceDifferentScenarios) {
  const auto a = scenario_thunderbird(1);
  const auto b = scenario_thunderbird(2);
  EXPECT_NE(a.programs[0].trace.end_time(), b.programs[0].trace.end_time());
}

// The default-constructed ScenarioTuning must be the EXACT identity:
// every pre-fleet artifact was generated through the untuned entry
// points, and those now delegate through the tuned ones. Record-level
// equality (SyscallRecord has defaulted operator==) catches any scaling
// helper that fails to short-circuit at 1.0.
TEST(Scenarios, DefaultTuningIsBitIdentical) {
  for (std::size_t i = 0; i < kScenarioCount; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const auto untuned = all_scenarios(7)[i];
    const auto tuned = all_scenarios(7, ScenarioTuning{})[i];
    ASSERT_EQ(untuned.programs.size(), tuned.programs.size());
    for (std::size_t p = 0; p < untuned.programs.size(); ++p) {
      EXPECT_EQ(untuned.programs[p].trace.records(),
                tuned.programs[p].trace.records());
    }
    EXPECT_EQ(untuned.oracle_future.records(), tuned.oracle_future.records());
    EXPECT_EQ(untuned.profiles.size(), tuned.profiles.size());
  }
}

TEST(Scenarios, TuningActuallyScales) {
  const ScenarioTuning light{1.0, 0.1};
  const auto full = scenario_grep_make(1);
  const auto scaled = scenario_grep_make(1, light);
  // A 10x-lighter workload must shed most of its records...
  EXPECT_LT(scaled.programs[0].trace.size(), full.programs[0].trace.size());
  // ...while a slower user stretches time without changing the workload.
  const ScenarioTuning slow{3.0, 1.0};
  const auto stretched = scenario_grep_make(1, slow);
  EXPECT_GT(stretched.programs[1].trace.end_time(),
            full.programs[1].trace.end_time());
  EXPECT_EQ(stretched.programs[0].trace.size(), full.programs[0].trace.size());
}

TEST(Scenarios, TuningRejectsNonPositiveAndNonFiniteScales) {
  using Builder = ScenarioBundle (*)(std::uint64_t, const ScenarioTuning&);
  const Builder builders[] = {scenario_grep_make, scenario_mplayer,
                              scenario_thunderbird, scenario_forced_spinup,
                              scenario_stale_acroread};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, inf, -inf, nan}) {
    SCOPED_TRACE(bad);
    for (const Builder build : builders) {
      EXPECT_THROW(build(1, ScenarioTuning{.think_scale = bad}), ConfigError);
      EXPECT_THROW(build(1, ScenarioTuning{.workload_scale = bad}), ConfigError);
    }
  }
}

/// Checks `set.find` against a binary search of the set's ascending
/// inodes on every inode, each inode's neighbours, 0 and the largest inode.
void expect_find_matches_binary_search(const trace::CompiledSet& set) {
  std::vector<trace::Inode> inodes;
  for (const trace::PageSpan& span : set.page_spans()) inodes.push_back(span.inode);
  ASSERT_TRUE(std::is_sorted(inodes.begin(), inodes.end()));
  const auto reference = [&](trace::Inode inode) -> std::optional<trace::FileId> {
    const auto it = std::lower_bound(inodes.begin(), inodes.end(), inode);
    if (it == inodes.end() || *it != inode) return std::nullopt;
    return trace::FileId{static_cast<std::uint32_t>(it - inodes.begin())};
  };
  std::vector<trace::Inode> queries{0, std::numeric_limits<trace::Inode>::max()};
  for (const trace::Inode inode : inodes) {
    queries.insert(queries.end(), {inode - 1, inode, inode + 1});
  }
  for (const trace::Inode inode : queries) {
    EXPECT_EQ(set.find(inode), reference(inode)) << "inode " << inode;
  }
}

TEST(Scenarios, CompiledSetFindAgreesWithBinarySearch) {
  for (const ScenarioBundle& b : all_scenarios(1)) {
    SCOPED_TRACE(b.name);
    expect_find_matches_binary_search(*b.programs.front().compiled->set());
  }
  // The fleet catalog's bundles: five scenarios at each think bucket.
  const fleet::FleetConfig config;
  fleet::ScenarioCatalog catalog(config.population.scenario_seed,
                                 config.population.think_scales, config.tuning);
  std::size_t bundles = 0;
  for (std::size_t s = 0; s < kScenarioCount; ++s) {
    for (std::size_t t = 0; t < config.population.think_scales.size(); ++t) {
      const ScenarioBundle& b = catalog.bundle(s, t);
      SCOPED_TRACE(b.name);
      expect_find_matches_binary_search(*b.programs.front().compiled->set());
      ++bundles;
    }
  }
  EXPECT_EQ(bundles, 15u);
}

}  // namespace
}  // namespace flexfetch::workloads
