// fleet: a default-settings user population in 256-user blocks,
// metrics-only telemetry on, run as min(nproc, 4) shards on as many
// threads, each through its own checkpoint file, then load_checkpoint_dir,
// merge_blocks and fingerprint.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/runner.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ff = flexfetch;
namespace fs = std::filesystem;

namespace {

/// Users per pass: 32 blocks of the default 256. Large enough that the
/// population mix, which the seed redraws, moves the FlexFetch totals by
/// only a few percent between seeds.
constexpr std::uint64_t kFleetUsers = 8192;

struct FleetInputs {
  ff::fleet::FleetConfig config;
  std::optional<ff::fleet::PopulationGenerator> gen;
  std::unique_ptr<ff::fleet::ScenarioCatalog> catalog;
};

/// Default population settings and tuning, with the benchmark seed as the
/// master seed (every user's draws derive from it). The blocks are dealt
/// to bench_jobs() shards, one thread each: on one thread the pass rate
/// followed whichever core that thread ran on, and the 10-seed spread of
/// sims_per_s reached 15-22%. The merge folds blocks in index order, so
/// the digest does not depend on the shard count. The scenario content
/// keeps its default structure seed: all users share those 15 bundles,
/// so redrawing them would move every user's figures at once. The
/// catalog is warmed with every (scenario, think bucket) bundle so no
/// pass builds one lazily; after that the shards only read it.
std::unique_ptr<FleetInputs> build_fleet(std::uint64_t seed) {
  auto in = std::make_unique<FleetInputs>();
  in->config.population.master_seed = seed;
  in->config.users = kFleetUsers;
  in->config.telemetry = true;
  in->config.workers = bench_jobs();
  in->gen.emplace(in->config.population);
  const auto& scales = in->config.population.think_scales;
  in->catalog = std::make_unique<ff::fleet::ScenarioCatalog>(
      in->config.population.scenario_seed, scales, in->config.tuning);
  ScopedSpan s("fleet.catalog_build", 0);
  for (std::size_t sc = 0; sc < ff::workloads::kScenarioCount; ++sc) {
    for (std::size_t b = 0; b < scales.size(); ++b) in->catalog->bundle(sc, b);
  }
  return in;
}

/// Rewrites one hexfloat digit of the checkpoint (digest-gate test hook).
void corrupt_checkpoint(const fs::path& file) {
  std::string text;
  {
    std::ifstream is(file);
    text.assign(std::istreambuf_iterator<char>(is), {});
  }
  const auto at = text.find("0x1.");
  if (at == std::string::npos || at + 4 >= text.size()) return;
  char& c = text[at + 4];
  c = c == '1' ? '2' : '1';
  std::ofstream(file) << text;
}

std::uint64_t digest_of(const ff::sim::SweepAggregator& agg) {
  return fnv1a(kFnvSeed, ff::fleet::fingerprint(agg));
}

FlexFetchTotals flexfetch_totals(const ff::sim::SweepAggregator& agg) {
  FlexFetchTotals t;
  const std::string suffix = "/flexfetch";
  for (const auto& [key, s] : agg.strata()) {
    if (key.size() < suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const double n = static_cast<double>(s.cells);
    t.energy_j += s.energy_j.mean() * n;
    t.io_time_s += s.io_time_s.mean() * n;
  }
  return t;
}

}  // namespace

std::uint64_t fleet_inputs_digest(std::uint64_t seed) {
  const auto in = build_fleet(seed);
  std::uint64_t h = kFnvSeed;
  for (std::uint64_t k = 0; k < in->config.users; ++k) {
    const auto u = in->gen->user(k);
    h = fnv1a_value(h, u.stream_seed);
    h = fnv1a_value(h, u.scenario);
    h = fnv1a_value(h, u.policy);
    h = fnv1a_value(h, u.think_bucket);
    h = fnv1a_value(h, u.latency_ms);
    h = fnv1a_value(h, u.bandwidth_mbps);
    h = fnv1a_value(h, u.hoard_coverage);
    h = fnv1a_value(h, u.battery_level);
    h = fnv1a_value(h, u.fault_seed);
  }
  const auto& scales = in->config.population.think_scales;
  for (std::size_t sc = 0; sc < ff::workloads::kScenarioCount; ++sc) {
    for (std::size_t b = 0; b < scales.size(); ++b) {
      h = digest_bundle(h, in->catalog->bundle(sc, b));
    }
  }
  return h;
}

Outcome run_fleet(const RunOptions& opt) {
  std::unique_ptr<FleetInputs> in;
  const std::vector<double> setup_s =
      time_setups(in, [&] { return build_fleet(opt.seed); }, opt.trace);
  const auto& config = in->config;
  const auto& gen = *in->gen;
  auto& catalog = *in->catalog;
  const std::uint64_t blocks = ff::fleet::block_count(config);
  const int shards = config.workers;
  if (opt.trace) {
    // The scenario generators and the trace compiler behind the catalog,
    // timed on their own.
    std::vector<ff::workloads::ScenarioBundle> bundles;
    {
      ScopedSpan s("workloads.build", 0);
      for (std::size_t sc = 0; sc < ff::workloads::kScenarioCount; ++sc) {
        for (const double scale : config.population.think_scales) {
          ff::workloads::ScenarioTuning t = config.tuning;
          t.think_scale *= scale;
          bundles.push_back(ff::fleet::make_scenario(
              sc, config.population.scenario_seed, t));
        }
      }
    }
    time_trace_compile(bundles);
  }

  const fs::path dir =
      fs::path(opt.work_dir) / ("fleet-" + std::to_string(::getpid()));
  const auto file = [&](int shard) {
    return dir / ff::fleet::shard_file_name(shard);
  };

  FlexFetchTotals ff_totals;
  TaskCounts counts;  // Of the last traced pass.
  double checkpoint_bytes = 0.0;
  double writeback = 0.0;
  ff::ThreadPool pool(static_cast<unsigned>(shards));
  PassLoop loop;
  loop.run(opt, [&](int index, bool traced) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    ff::sim::SweepAggregator agg;
    if (!traced) {
      ff::parallel_for(pool, shards, [&](std::size_t k) {
        const int shard = static_cast<int>(k);
        std::ofstream out(file(shard));
        ff::fleet::run_shard(config, gen, catalog, shard, {}, out);
      });
      if (opt.perturb && index == 1) corrupt_checkpoint(file(0));
      const auto state = ff::fleet::load_checkpoint_dir(dir.string());
      agg = ff::fleet::merge_blocks(config, state.blocks);
      if (index == 0) ff_totals = flexfetch_totals(agg);
      return PassResult{config.users, digest_of(agg)};
    }
    // The traced pass runs each shard's blocks itself, as run_shard does.
    std::vector<TaskCounts> shard_counts(shards);
    ff::parallel_for(pool, shards, [&](std::size_t k) {
      const int shard = static_cast<int>(k);
      std::ofstream out(file(shard));
      for (std::uint64_t b = k; b < blocks; b += config.workers) {
        ff::fleet::BlockSummary summary;
        summary.block = b;
        summary.user_lo = b * config.block_size;
        summary.user_hi =
            std::min(summary.user_lo + config.block_size, config.users);
        {
          ScopedSpan s("fleet.block", b);
          for (std::uint64_t u = summary.user_lo; u < summary.user_hi; ++u) {
            const auto user = gen.user(u);
            const auto cell = ff::fleet::cell_for(
                user, gen, catalog.bundle(user.scenario, user.think_bucket),
                config);
            summary.agg.add(cell, run_traced_cell(cell, u, shard_counts[k]));
          }
        }
        ScopedSpan s("fleet.checkpoint_write", b);
        ff::fleet::write_block_line(out, summary);
        out.flush();
      }
    });
    counts = TaskCounts{};
    for (const auto& c : shard_counts) counts.merge(c);
    checkpoint_bytes = 0.0;
    for (int k = 0; k < shards; ++k) {
      checkpoint_bytes += static_cast<double>(fs::file_size(file(k)));
    }
    {
      ScopedSpan s("fleet.load_merge", 0);
      const auto state = ff::fleet::load_checkpoint_dir(dir.string());
      ScopedSpan m("sweep.aggregate", 0);
      agg = ff::fleet::merge_blocks(config, state.blocks);
    }
    writeback = 0.0;
    for (const auto& [key, s] : agg.strata()) {
      writeback += writeback_flushes(s.metrics);
    }
    return PassResult{config.users, digest_of(agg)};
  });
  fs::remove_all(dir);

  Outcome out;
  loop.check_golden(opt);
  if (!opt.trace) {
    add_end_to_end(out, loop, setup_s, ff_totals);
  } else {
    // Telemetry cost on identical work: block 0 with metrics off and on,
    // alternated.
    ff::fleet::FleetConfig off = config;
    off.telemetry = false;
    std::vector<double> t_off, t_on;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool on : {false, true}) {
        const auto t0 = Clock::now();
        ff::fleet::run_block(on ? config : off, gen, catalog, 0);
        (on ? t_on : t_off).push_back(seconds_between(t0, Clock::now()));
      }
    }

    // Layer probes on block 0's users.
    ProbeTotals probes;
    const std::vector<ff::core::Profile> none;
    for (std::uint64_t k = 0; k < std::min(config.block_size, config.users);
         ++k) {
      const auto u = gen.user(k);
      const auto cell = ff::fleet::cell_for(
          u, gen, catalog.bundle(u.scenario, u.think_bucket), config);
      ScopedSpan s("probe", k);
      ff::sim::SimConfig sc = cell.config;
      sc.wnic = cell.wnic;
      probes.merge(probe_task(cell.scenario->programs, sc,
                              cell.policy == "flexfetch"
                                  ? cell.scenario->profiles
                                  : none,
                              cell.loss_rate));
    }

    LayerValues v;
    v["workloads.build_ms"] = span_totals("workloads.build").total_s * 1e3;
    v["trace.compile_ms"] = span_totals("trace.compile").total_s * 1e3;
    v["fleet.catalog_build_ms"] =
        span_totals("fleet.catalog_build").total_s * 1e3;
    fill_task_layers(v, counts, probes);
    v["os.writeback.flushes"] = writeback;
    v["telemetry.overhead_pct"] = 100.0 * (median(t_on) / median(t_off) - 1.0);
    v["sweep.aggregate_us"] = span_mean("sweep.aggregate", 1e6);
    v["fleet.block_ms"] = span_mean("fleet.block", 1e3);
    v["fleet.checkpoint_write_us"] = span_mean("fleet.checkpoint_write", 1e6);
    v["fleet.checkpoint_bytes"] = checkpoint_bytes;
    v["fleet.load_merge_ms"] = span_mean("fleet.load_merge", 1e3);
    fill_trace_overhead(v, loop);
    emit_layers(out, v);
  }
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  out.digest = loop.reference;
  return out;
}

}  // namespace perfbench
