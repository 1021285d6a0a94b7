// Fleet-scale population sweep driver: N synthetic users sharded across
// worker PROCESSES, with an automated bit-identity gate against the
// single-process reference.
//
//   ./build/bench/bench_fleet [--users N] [--block-size B] [--workers W]
//                             [--seed S] [--policies a,b,c]
//                             [--workload-scale X] [--telemetry]
//                             [--checkpoint-dir DIR] [--resume]
//                             [--no-baseline] [--out FILE]
//
// The parent first runs the whole population in-process (the monolithic
// baseline) and fingerprints the aggregate, then re-execs itself W times
// with --worker-shard k. Each worker runs its interleaved block set and
// appends exact (hexfloat) per-block summaries to DIR/shard-k, flushed
// per block. The parent merges every recovered block in block-index
// order and GATES on fingerprint equality with the baseline: the sharded
// multi-process aggregate must be bit-identical to the single-process
// one, whatever the worker count or completion order (see
// src/fleet/runner.hpp for why that holds). BENCH_fleet.json records
// throughput (users/sec), the multi-process speedup over the baseline,
// peak RSS of parent and every shard, per-shard wall times, and the
// per-stratum aggregates.
//
// --resume keeps existing checkpoint lines and runs only the missing
// blocks — kill a run, rerun with --resume, and the merged result is
// bit-identical to an uninterrupted one (the per-block lines a killed
// worker already flushed are reused verbatim; a torn trailing line is
// dropped by the loader and that block simply reruns).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/process.hpp"
#include "fleet/runner.hpp"
#include "harness.hpp"
#include "sim/sweep.hpp"

using namespace flexfetch;

namespace {

struct FleetFlags {
  std::uint64_t users = 1000;
  int block_size = 0;  // 0 = FleetConfig default
  int workers = 2;
  std::uint64_t seed = 1;
  std::string policies_csv;
  /// Kept as typed so a worker's argv repeats it exactly; main() checks it.
  std::string workload_scale;
  bool telemetry = false;
  std::string checkpoint_dir = "BENCH_fleet.ckpt";
  bool resume = false;
  bool no_baseline = false;
  std::string out_path = "BENCH_fleet.json";
  int worker_shard = -1;
};

fleet::FleetConfig config_from(const FleetFlags& f) {
  fleet::FleetConfig config;
  config.population.master_seed = f.seed;
  config.population.scenario_seed = f.seed;
  if (!f.policies_csv.empty()) {
    config.population.policies = bench::split_csv(f.policies_csv);
  }
  config.users = f.users;
  if (f.block_size > 0) {
    config.block_size = static_cast<std::uint64_t>(f.block_size);
  }
  config.workers = f.workers;
  config.telemetry = f.telemetry;
  if (!f.workload_scale.empty()) {
    bench::parse_number(f.workload_scale, config.tuning.workload_scale);
  }
  return config;
}

/// The exact flag vector a worker needs to rebuild the parent's config.
std::vector<std::string> worker_argv(const FleetFlags& f, int shard) {
  std::vector<std::string> argv = {fleet::self_exe_path(),
                                   "--worker-shard",
                                   std::to_string(shard),
                                   "--users",
                                   std::to_string(f.users),
                                   "--workers",
                                   std::to_string(f.workers),
                                   "--seed",
                                   std::to_string(f.seed),
                                   "--checkpoint-dir",
                                   f.checkpoint_dir};
  if (f.block_size > 0) {
    argv.push_back("--block-size");
    argv.push_back(std::to_string(f.block_size));
  }
  if (!f.policies_csv.empty()) {
    argv.push_back("--policies");
    argv.push_back(f.policies_csv);
  }
  if (!f.workload_scale.empty()) {
    argv.push_back("--workload-scale");
    argv.push_back(f.workload_scale);
  }
  if (f.telemetry) argv.push_back("--telemetry");
  return argv;
}

int run_worker(const FleetFlags& f) {
  const fleet::FleetConfig config = config_from(f);
  const fleet::PopulationGenerator gen(config.population);
  fleet::ScenarioCatalog catalog(config.population.scenario_seed,
                                 config.population.think_scales,
                                 config.tuning);

  // Skip anything already durable (this shard's pre-kill progress AND any
  // block another worker count's layout already covered).
  const fleet::CheckpointState state =
      fleet::load_checkpoint_dir(f.checkpoint_dir);
  std::set<std::uint64_t> done;
  for (const auto& [index, summary] : state.blocks) done.insert(index);

  const std::filesystem::path path =
      std::filesystem::path(f.checkpoint_dir) /
      fleet::shard_file_name(f.worker_shard);
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bench_fleet worker %d: cannot open %s\n",
                 f.worker_shard, path.c_str());
    return 1;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const fleet::ShardRunStats stats =
      fleet::run_shard(config, gen, catalog, f.worker_shard, done, out);

  fleet::ShardMeta meta;
  meta.shard = f.worker_shard;
  meta.wall_seconds = bench::wall_seconds_since(t0);
  meta.peak_rss_bytes = bench::peak_rss_bytes();
  meta.users = stats.users;
  meta.blocks = stats.blocks;
  fleet::write_meta_line(out, meta);
  out.flush();
  return out ? 0 : 1;
}

void write_fleet_json(std::ostream& os, const fleet::FleetConfig& config,
                      const sim::SweepAggregator& agg,
                      const std::vector<fleet::ShardMeta>& metas,
                      double wall_seconds, double baseline_wall_seconds,
                      bool baseline_ran, bool identical,
                      std::uint64_t resumed_blocks) {
  os << "{\n";
  os << "  \"users\": " << config.users << ",\n";
  os << "  \"block_size\": " << config.block_size << ",\n";
  os << "  \"blocks\": " << fleet::block_count(config) << ",\n";
  os << "  \"workers\": " << config.workers << ",\n";
  os << "  \"hardware_concurrency\": " << ThreadPool::default_concurrency()
     << ",\n";
  os << "  \"workload_scale\": " << config.tuning.workload_scale << ",\n";
  os << "  \"telemetry\": " << (config.telemetry ? "true" : "false") << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  os << "  \"users_per_sec\": "
     << (wall_seconds > 0.0 ? static_cast<double>(config.users) / wall_seconds
                            : 0.0)
     << ",\n";
  os << "  \"baseline\": " << (baseline_ran ? "true" : "false") << ",\n";
  os << "  \"baseline_wall_seconds\": " << baseline_wall_seconds << ",\n";
  os << "  \"speedup\": "
     << (baseline_ran && wall_seconds > 0.0
             ? baseline_wall_seconds / wall_seconds
             : 0.0)
     << ",\n";
  os << "  \"aggregates_identical\": " << (identical ? "true" : "false")
     << ",\n";
  os << "  \"resumed_blocks\": " << resumed_blocks << ",\n";
  os << "  \"peak_rss_bytes\": " << bench::peak_rss_bytes() << ",\n";
  os << "  \"shards\": [\n";
  for (std::size_t i = 0; i < metas.size(); ++i) {
    const fleet::ShardMeta& m = metas[i];
    os << "    {\"shard\": " << m.shard << ", \"wall_seconds\": "
       << m.wall_seconds << ", \"peak_rss_bytes\": " << m.peak_rss_bytes
       << ", \"users\": " << m.users << ", \"blocks\": " << m.blocks << "}"
       << (i + 1 < metas.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"cells\": " << agg.cells_seen() << ",\n";
  sim::write_strata_json(os, agg, 2);
  os << "\n}\n";
}

int run_parent(const FleetFlags& f) {
  const fleet::FleetConfig config = config_from(f);
  const fleet::PopulationGenerator gen(config.population);
  const std::uint64_t n_blocks = fleet::block_count(config);
  std::printf("fleet: %llu users in %llu blocks of %llu, %d workers\n",
              static_cast<unsigned long long>(config.users),
              static_cast<unsigned long long>(n_blocks),
              static_cast<unsigned long long>(config.block_size),
              config.workers);

  namespace fs = std::filesystem;
  fs::create_directories(f.checkpoint_dir);
  std::uint64_t resumed_blocks = 0;
  if (f.resume) {
    resumed_blocks =
        fleet::load_checkpoint_dir(f.checkpoint_dir).blocks.size();
    std::printf("resume: %llu blocks already durable\n",
                static_cast<unsigned long long>(resumed_blocks));
  } else {
    // Fresh run: clear this run's own scratch files (and nothing else).
    for (const auto& entry : fs::directory_iterator(f.checkpoint_dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("shard-", 0) == 0) {
        fs::remove(entry.path());
      }
    }
  }

  // Single-process reference: same block fold, no serialization.
  double baseline_wall = 0.0;
  std::string baseline_fp;
  if (!f.no_baseline) {
    fleet::ScenarioCatalog catalog(config.population.scenario_seed,
                                   config.population.think_scales,
                                   config.tuning);
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SweepAggregator mono =
        fleet::run_monolithic(config, gen, catalog);
    baseline_wall = bench::wall_seconds_since(t0);
    baseline_fp = fleet::fingerprint(mono);
    std::printf("baseline (1 process): %.2f s, %.0f users/s\n", baseline_wall,
                static_cast<double>(config.users) / baseline_wall);
  }

  // Multi-process pass: one child per shard, all concurrent.
  std::vector<std::vector<std::string>> argvs;
  argvs.reserve(static_cast<std::size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w) {
    argvs.push_back(worker_argv(f, w));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto results = fleet::run_processes(argvs);
  const double wall = bench::wall_seconds_since(t1);
  for (int w = 0; w < config.workers; ++w) {
    const auto& r = results[static_cast<std::size_t>(w)];
    if (!r.ok()) {
      std::fprintf(stderr, "bench_fleet: worker %d failed (%s %d)\n", w,
                   r.signaled ? "signal" : "exit",
                   r.signaled ? r.term_signal : r.exit_code);
      return 1;
    }
  }
  std::printf("sharded (%d processes): %.2f s, %.0f users/s\n", config.workers,
              wall, static_cast<double>(config.users) / wall);

  // Merge and gate.
  const fleet::CheckpointState state =
      fleet::load_checkpoint_dir(f.checkpoint_dir);
  const sim::SweepAggregator merged = fleet::merge_blocks(config, state.blocks);
  bool identical = false;
  if (!f.no_baseline) {
    identical = fleet::fingerprint(merged) == baseline_fp;
    if (!identical) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION: sharded merge differs from the "
                   "single-process aggregate\n");
      return 1;
    }
    std::printf("bit-identity: sharded merge == single-process aggregate "
                "(%llu blocks, %d workers)\n",
                static_cast<unsigned long long>(n_blocks), config.workers);
  }

  std::vector<fleet::ShardMeta> metas = state.metas;
  std::sort(metas.begin(), metas.end(),
            [](const fleet::ShardMeta& a, const fleet::ShardMeta& b) {
              return a.shard < b.shard;
            });

  std::ofstream os(f.out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", f.out_path.c_str());
    return 1;
  }
  write_fleet_json(os, config, merged, metas, wall, baseline_wall,
                   !f.no_baseline, identical, resumed_blocks);
  std::printf("wrote %s (%zu strata)\n", f.out_path.c_str(),
              merged.strata().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    FleetFlags f;
    bench::ParsedFlags flags;
    flags.add("users", &f.users, "N");
    flags.add("block-size", &f.block_size, "B");
    flags.add("workers", &f.workers, "W");
    flags.add("seed", &f.seed, "S");
    flags.add("policies", &f.policies_csv, "a,b,c");
    flags.add("workload-scale", &f.workload_scale, "X");
    flags.add("telemetry", &f.telemetry);
    flags.add("checkpoint-dir", &f.checkpoint_dir, "DIR");
    flags.add("resume", &f.resume);
    flags.add("no-baseline", &f.no_baseline);
    flags.add("out", &f.out_path, "FILE");
    flags.add("worker-shard", &f.worker_shard, "K");
    flags.parse(argc, argv);
    double scale = 1.0;
    if (!f.workload_scale.empty() &&
        !(bench::parse_number(f.workload_scale, scale) && std::isfinite(scale) &&
          scale > 0.0)) {
      flags.usage_and_exit(argv[0], "bad number for --workload-scale",
                           f.workload_scale.c_str());
    }
    return f.worker_shard >= 0 ? run_worker(f) : run_parent(f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fleet: %s\n", e.what());
    return 1;
  }
}
