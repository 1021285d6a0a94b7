// Fleet subsystem: population determinism across shard boundaries, exact
// checkpoint round-trips, block-merge bit-identity for every worker
// grouping, and kill/resume equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/catalog.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "sim/sweep.hpp"

namespace flexfetch::fleet {
namespace {

bool users_equal(const UserParams& a, const UserParams& b) {
  return a.index == b.index && a.stream_seed == b.stream_seed &&
         a.scenario == b.scenario && a.policy == b.policy &&
         a.think_scale == b.think_scale && a.think_bucket == b.think_bucket &&
         a.latency_ms == b.latency_ms &&
         a.bandwidth_mbps == b.bandwidth_mbps &&
         a.hoard_coverage == b.hoard_coverage &&
         a.battery_level == b.battery_level && a.fault_seed == b.fault_seed;
}

TEST(Population, UserKRegeneratesIndependentOfEnumeration) {
  const PopulationGenerator gen{PopulationSpec{}};
  // Enumerate 0..N in order, then regenerate a scatter of indices cold
  // (as a resumed shard would): bit-identical parameters either way.
  std::vector<UserParams> seq;
  for (std::uint64_t k = 0; k < 300; ++k) seq.push_back(gen.user(k));
  const PopulationGenerator cold{PopulationSpec{}};
  for (const std::uint64_t k : {0ULL, 1ULL, 17ULL, 255ULL, 256ULL, 299ULL}) {
    EXPECT_TRUE(users_equal(seq[k], cold.user(k))) << "user " << k;
  }
}

TEST(Population, ShardBoundaryDoesNotExist) {
  // The defining fleet property: user k's parameters do not depend on any
  // partitioning. Simulate 3 shards regenerating interleaved ranges and
  // compare against the full sequence.
  const PopulationGenerator gen{PopulationSpec{}};
  for (int shard = 0; shard < 3; ++shard) {
    const PopulationGenerator shard_gen{PopulationSpec{}};
    for (std::uint64_t k = static_cast<std::uint64_t>(shard); k < 200;
         k += 3) {
      EXPECT_TRUE(users_equal(gen.user(k), shard_gen.user(k)));
    }
  }
}

TEST(Population, MasterSeedSelectsTheWholePopulation) {
  PopulationSpec a;
  PopulationSpec b;
  b.master_seed = 2;
  const PopulationGenerator ga{a};
  const PopulationGenerator gb{b};
  int diffs = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    if (!users_equal(ga.user(k), gb.user(k))) ++diffs;
  }
  EXPECT_GT(diffs, 45);  // Essentially every user re-rolls.
}

TEST(Population, SampledParametersStayInRange) {
  const PopulationSpec spec;
  const PopulationGenerator gen{spec};
  int faulted = 0;
  int synced = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const UserParams u = gen.user(k);
    EXPECT_LT(u.scenario, workloads::kScenarioCount);
    EXPECT_LT(u.policy, spec.policies.size());
    EXPECT_LT(u.think_bucket, spec.think_scales.size());
    EXPECT_GT(u.think_scale, 0.0);
    EXPECT_GT(u.latency_ms, 0.0);
    EXPECT_TRUE(u.bandwidth_mbps == 1.0 || u.bandwidth_mbps == 2.0 ||
                u.bandwidth_mbps == 5.5 || u.bandwidth_mbps == 11.0);
    EXPECT_GE(u.hoard_coverage, 0.0);
    EXPECT_LE(u.hoard_coverage, 1.0);
    EXPECT_GE(u.battery_level, spec.battery_min);
    EXPECT_LE(u.battery_level, spec.battery_max);
    faulted += u.fault_seed != 0 ? 1 : 0;
    synced += u.hoard_coverage < spec.sync_coverage_threshold ? 1 : 0;
    const double lr = gen.loss_rate_for(u);
    EXPECT_GE(lr, spec.loss_rate_full);
    EXPECT_LE(lr, spec.loss_rate_empty);
  }
  // fault_probability = 0.25 over 2000 draws: a loose 3-sigma-ish band.
  EXPECT_GT(faulted, 380);
  EXPECT_LT(faulted, 620);
  // hoard normal(0.8, 0.15) below 0.7 is ~25% of users.
  EXPECT_GT(synced, 300);
  EXPECT_LT(synced, 700);
}

TEST(Population, RejectsMalformedSpecs) {
  PopulationSpec bad;
  bad.scenario_weights = {1.0};  // Wrong arity.
  EXPECT_THROW(PopulationGenerator{bad}, ConfigError);

  bad = PopulationSpec{};
  bad.policies.clear();
  EXPECT_THROW(PopulationGenerator{bad}, ConfigError);

  bad = PopulationSpec{};
  bad.fault_probability = 1.5;
  EXPECT_THROW(PopulationGenerator{bad}, ConfigError);

  bad = PopulationSpec{};
  bad.battery_min = 0.9;
  bad.battery_max = 0.1;
  EXPECT_THROW(PopulationGenerator{bad}, ConfigError);

  bad = PopulationSpec{};
  bad.scenario_weights.assign(workloads::kScenarioCount, 0.0);
  EXPECT_THROW(PopulationGenerator{bad}, ConfigError);
}

TEST(Population, ZeroWeightEntriesAreNeverPicked) {
  PopulationSpec spec;
  spec.scenario_weights = {0.0, 1.0, 0.0, 1.0, 0.0};
  const PopulationGenerator gen{spec};
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::size_t s = gen.user(k).scenario;
    EXPECT_TRUE(s == 1 || s == 3) << "user " << k << " scenario " << s;
  }
}

TEST(Catalog, BuildsLazilyAndReturnsStableReferences) {
  ScenarioCatalog catalog(1, {0.5, 1.0}, workloads::ScenarioTuning{1.0, 0.1});
  EXPECT_EQ(catalog.bundles_built(), 0u);
  const auto* first = &catalog.bundle(1, 0);
  EXPECT_EQ(catalog.bundles_built(), 1u);
  EXPECT_EQ(first, &catalog.bundle(1, 0));  // Cached, same object.
  EXPECT_EQ(catalog.bundles_built(), 1u);
  catalog.bundle(1, 1);
  EXPECT_EQ(catalog.bundles_built(), 2u);
  EXPECT_THROW(catalog.bundle(workloads::kScenarioCount, 0), ConfigError);
  EXPECT_THROW(catalog.bundle(0, 2), ConfigError);
}

/// Small-but-real fleet configuration shared by the merge/checkpoint
/// tests: tiny workloads, telemetry ON so histograms ride the format.
FleetConfig small_config() {
  FleetConfig config;
  config.users = 37;          // Deliberately not a multiple of block_size.
  config.block_size = 8;      // 5 blocks, last one ragged.
  config.workers = 1;
  config.telemetry = true;
  config.tuning.workload_scale = 0.05;
  return config;
}

TEST(Runner, BlockPartitioningCoversUsersExactly) {
  const FleetConfig config = small_config();
  EXPECT_EQ(block_count(config), 5u);
  const PopulationGenerator gen{config.population};
  ScenarioCatalog catalog(config.population.scenario_seed,
                          config.population.think_scales, config.tuning);
  std::uint64_t covered = 0;
  for (std::uint64_t b = 0; b < block_count(config); ++b) {
    const BlockSummary s = run_block(config, gen, catalog, b);
    EXPECT_EQ(s.user_lo, b * config.block_size);
    EXPECT_EQ(s.agg.cells_seen(), s.user_hi - s.user_lo);
    covered += s.user_hi - s.user_lo;
  }
  EXPECT_EQ(covered, config.users);
}

TEST(Checkpoint, BlockLineRoundTripsBitExactly) {
  const FleetConfig config = small_config();
  const PopulationGenerator gen{config.population};
  ScenarioCatalog catalog(config.population.scenario_seed,
                          config.population.think_scales, config.tuning);
  const BlockSummary original = run_block(config, gen, catalog, 2);
  ASSERT_FALSE(original.agg.strata().empty());

  std::ostringstream os;
  write_block_line(os, original);
  const std::string line = os.str();
  ASSERT_EQ(line.back(), '\n');

  BlockSummary parsed;
  ASSERT_TRUE(parse_block_line(
      std::string_view(line).substr(0, line.size() - 1), &parsed));
  EXPECT_EQ(parsed.block, original.block);
  EXPECT_EQ(parsed.user_lo, original.user_lo);
  EXPECT_EQ(parsed.user_hi, original.user_hi);
  // fingerprint() equality is the bit-identity oracle: every count, mean,
  // M2, min, max, metric, and histogram bucket round-tripped exactly.
  EXPECT_EQ(fingerprint(parsed.agg), fingerprint(original.agg));

  // With telemetry on the strata carry histograms, so the round-trip
  // above actually exercised the histogram encoding.
  bool saw_histogram = false;
  for (const auto& [key, st] : original.agg.strata()) {
    saw_histogram = saw_histogram || !st.metrics.histograms().empty();
  }
  EXPECT_TRUE(saw_histogram);
}

TEST(Checkpoint, TruncatedLinesAreRejectedNotMisparsed) {
  const FleetConfig config = small_config();
  const PopulationGenerator gen{config.population};
  ScenarioCatalog catalog(config.population.scenario_seed,
                          config.population.think_scales, config.tuning);
  std::ostringstream os;
  write_block_line(os, run_block(config, gen, catalog, 0));
  std::string line = os.str();
  line.pop_back();  // strip newline
  BlockSummary out;
  ASSERT_TRUE(parse_block_line(line, &out));
  // Every proper prefix — a torn write — must fail cleanly.
  for (const std::size_t cut : {line.size() - 1, line.size() - 4,
                                line.size() / 2, line.size() / 4, 7UL, 0UL}) {
    BlockSummary torn;
    EXPECT_FALSE(parse_block_line(std::string_view(line).substr(0, cut),
                                  &torn))
        << "prefix of length " << cut << " parsed";
  }
  EXPECT_FALSE(parse_block_line(line + " trailing", &out));
  // So must a block index that is signed or out of range: strtoull read -1
  // and 99999999999999999999 as 2^64 - 1, and +3 as 3.
  ASSERT_EQ(line.rfind("block 0 ", 0), 0u);
  const std::string rest = line.substr(7);  // From the space after the index.
  for (const char* index : {"-1", "99999999999999999999", "+3"}) {
    EXPECT_FALSE(parse_block_line(std::string("block ") + index + rest, &out))
        << "block index " << index << " parsed";
  }

  // The line with token i (0-based, space-separated) replaced.
  std::vector<std::string> tokens;
  std::istringstream words(line);
  for (std::string token; words >> token;) tokens.push_back(token);
  const auto with = [&tokens](std::size_t i, const std::string& token) {
    std::string edited;
    for (std::size_t k = 0; k < tokens.size(); ++k) {
      edited += (k == 0 ? "" : " ") + (k == i ? token : tokens[k]);
    }
    return edited;
  };
  const auto index_of = [&tokens](const std::string& token) {
    const auto it = std::find(tokens.begin(), tokens.end(), token);
    EXPECT_NE(it, tokens.end()) << token;
    return static_cast<std::size_t>(it - tokens.begin());
  };
  ASSERT_TRUE(parse_block_line(with(0, "block"), &out));

  // Metric names and kinds come from the metric table: a name outside it,
  // a kind other than its own and a name given twice in one stratum (with
  // the same kind, or with two kinds) are malformed, not merged.
  const std::size_t syscalls = index_of("sim.syscalls");  // Then kind, value.
  const std::size_t sync_bytes = index_of("sim.sync_bytes");
  EXPECT_FALSE(parse_block_line(with(syscalls, "made.up"), &out));
  EXPECT_FALSE(parse_block_line(with(syscalls + 1, "1"), &out));
  EXPECT_FALSE(parse_block_line(with(sync_bytes, "sim.syscalls"), &out));
  tokens[syscalls + 1] = "1";
  EXPECT_FALSE(parse_block_line(with(sync_bytes, "sim.syscalls"), &out));
  tokens[syscalls + 1] = "0";

  // A double is only what put_hex writes: -?0x<hex>[.<hex>]p[+-]<digits>.
  const std::size_t stat_mean = index_of("stat") + 2;
  const std::size_t metric_value = syscalls + 2;
  const std::size_t hists = index_of("hists");
  ASSERT_NE(tokens[hists + 1], "0");
  const std::size_t hist_sum = hists + 4;  // After the name and the count.
  for (const std::size_t at : {stat_mean, metric_value, hist_sum}) {
    ASSERT_TRUE(parse_block_line(with(at, "-0x1.8p+1"), &out));
    for (const char* spelling : {"1.5", "+0x1p+0", "0X1P+0", "inf", "nan"}) {
      EXPECT_FALSE(parse_block_line(with(at, spelling), &out))
          << spelling << " parsed as token " << at;
    }
  }
}

TEST(Checkpoint, MetaLineRoundTrips) {
  ShardMeta m;
  m.shard = 3;
  m.wall_seconds = 1.25e-3;
  m.peak_rss_bytes = 123456789;
  m.users = 500;
  m.blocks = 2;
  std::ostringstream os;
  write_meta_line(os, m);
  std::string line = os.str();
  line.pop_back();
  ShardMeta parsed;
  ASSERT_TRUE(parse_meta_line(line, &parsed));
  EXPECT_EQ(parsed.shard, m.shard);
  EXPECT_EQ(parsed.wall_seconds, m.wall_seconds);
  EXPECT_EQ(parsed.peak_rss_bytes, m.peak_rss_bytes);
  EXPECT_EQ(parsed.users, m.users);
  EXPECT_EQ(parsed.blocks, m.blocks);

  // A shard is a non-negative int: -1 read as shard -1, and 2^31 wrapped.
  ASSERT_EQ(line.rfind("meta shard 3 ", 0), 0u);
  for (const char* shard : {"-1", "2147483648", "+3"}) {
    EXPECT_FALSE(parse_meta_line(std::string("meta shard ") + shard + line.substr(12),
                                 &parsed))
        << "shard " << shard << " parsed";
  }
}

TEST(Runner, AnyWorkerGroupingMergesToTheMonolithicBits) {
  const FleetConfig base = small_config();
  const PopulationGenerator gen{base.population};

  ScenarioCatalog mono_catalog(base.population.scenario_seed,
                               base.population.think_scales, base.tuning);
  const std::string reference =
      fingerprint(run_monolithic(base, gen, mono_catalog));

  // Every worker count from 1 to one-per-block, each shard run through
  // the FULL serialize -> parse -> merge path.
  for (int workers = 1; workers <= 5; ++workers) {
    FleetConfig config = base;
    config.workers = workers;
    std::map<std::uint64_t, BlockSummary> blocks;
    for (int shard = 0; shard < workers; ++shard) {
      ScenarioCatalog catalog(config.population.scenario_seed,
                              config.population.think_scales, config.tuning);
      std::ostringstream out;
      run_shard(config, gen, catalog, shard, {}, out);
      std::istringstream in(out.str());
      std::string line;
      while (std::getline(in, line)) {
        BlockSummary b;
        ASSERT_TRUE(parse_block_line(line, &b));
        blocks.emplace(b.block, std::move(b));
      }
    }
    EXPECT_EQ(fingerprint(merge_blocks(config, blocks)), reference)
        << workers << " workers";
  }
}

TEST(Runner, MergeRefusesPartialCoverage) {
  const FleetConfig config = small_config();
  const PopulationGenerator gen{config.population};
  ScenarioCatalog catalog(config.population.scenario_seed,
                          config.population.think_scales, config.tuning);
  std::map<std::uint64_t, BlockSummary> blocks;
  for (std::uint64_t b = 0; b + 1 < block_count(config); ++b) {
    BlockSummary s = run_block(config, gen, catalog, b);
    blocks.emplace(b, std::move(s));
  }
  EXPECT_THROW(merge_blocks(config, blocks), ConfigError);
}

TEST(Runner, KillAndResumeReproducesUninterruptedBits) {
  const FleetConfig config = small_config();
  const PopulationGenerator gen{config.population};

  ScenarioCatalog mono_catalog(config.population.scenario_seed,
                               config.population.think_scales, config.tuning);
  const std::string reference =
      fingerprint(run_monolithic(config, gen, mono_catalog));

  // First life: the worker dies mid-run — keep only the first two durable
  // lines plus a TORN third line (simulating a kill mid-write).
  ScenarioCatalog catalog1(config.population.scenario_seed,
                           config.population.think_scales, config.tuning);
  std::ostringstream full;
  run_shard(config, gen, catalog1, 0, {}, full);
  std::istringstream lines(full.str());
  std::string line;
  std::string survived;
  int kept = 0;
  while (std::getline(lines, line) && kept < 2) {
    survived += line + "\n";
    ++kept;
  }
  survived += line.substr(0, line.size() / 3);  // torn, no newline

  // Recovery: parse what survived, then resume with the done-set.
  std::map<std::uint64_t, BlockSummary> blocks;
  std::istringstream survived_in(survived);
  while (std::getline(survived_in, line)) {
    BlockSummary b;
    if (parse_block_line(line, &b)) blocks.emplace(b.block, std::move(b));
  }
  ASSERT_EQ(blocks.size(), 2u);  // The torn line did not count.

  std::set<std::uint64_t> done;
  for (const auto& [index, b] : blocks) done.insert(index);
  ScenarioCatalog catalog2(config.population.scenario_seed,
                           config.population.think_scales, config.tuning);
  std::ostringstream second_life;
  const ShardRunStats stats =
      run_shard(config, gen, catalog2, 0, done, second_life);
  EXPECT_EQ(stats.blocks, block_count(config) - 2);

  std::istringstream second_in(second_life.str());
  while (std::getline(second_in, line)) {
    BlockSummary b;
    ASSERT_TRUE(parse_block_line(line, &b));
    EXPECT_FALSE(blocks.contains(b.block));  // Never re-runs durable work.
    blocks.emplace(b.block, std::move(b));
  }
  EXPECT_EQ(fingerprint(merge_blocks(config, blocks)), reference);
}

TEST(Checkpoint, DirectoryLoadSkipsTornAndForeignLines) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "flexfetch_fleet_ckpt_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const FleetConfig config = small_config();
  const PopulationGenerator gen{config.population};
  ScenarioCatalog catalog(config.population.scenario_seed,
                          config.population.think_scales, config.tuning);

  {
    std::ofstream out(dir / shard_file_name(0));
    write_block_line(out, run_block(config, gen, catalog, 0));
    write_block_line(out, run_block(config, gen, catalog, 1));
    ShardMeta m;
    m.shard = 0;
    m.users = 16;
    m.blocks = 2;
    write_meta_line(out, m);
    out << "block 2 16 24 agg 8 strata";  // torn mid-write, no newline
  }
  {
    std::ofstream out(dir / "not-a-shard.txt");
    out << "garbage that the loader must never read\n";
  }

  const CheckpointState state = load_checkpoint_dir((dir).string());
  EXPECT_EQ(state.blocks.size(), 2u);
  EXPECT_TRUE(state.blocks.contains(0));
  EXPECT_TRUE(state.blocks.contains(1));
  ASSERT_EQ(state.metas.size(), 1u);
  EXPECT_EQ(state.metas[0].blocks, 2u);

  EXPECT_TRUE(load_checkpoint_dir((dir / "missing").string()).blocks.empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flexfetch::fleet
