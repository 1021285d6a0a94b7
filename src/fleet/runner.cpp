#include "fleet/runner.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "faults/schedule.hpp"

namespace flexfetch::fleet {

std::uint64_t block_count(const FleetConfig& config) {
  FF_REQUIRE(config.users > 0, "fleet: zero users");
  FF_REQUIRE(config.block_size > 0, "fleet: zero block size");
  return (config.users + config.block_size - 1) / config.block_size;
}

sim::SweepCell cell_for(const UserParams& u, const PopulationGenerator& gen,
                        const workloads::ScenarioBundle& bundle,
                        const FleetConfig& config) {
  const PopulationSpec& spec = gen.spec();
  sim::SweepCell cell;
  cell.scenario = &bundle;
  cell.policy = spec.policies[u.policy];
  cell.wnic = device::WnicParams::cisco_aironet350()
                  .with_latency(units::ms(u.latency_ms))
                  .with_bandwidth_mbps(u.bandwidth_mbps);
  cell.loss_rate = gen.loss_rate_for(u);
  cell.axis = "user";
  cell.axis_value = static_cast<double>(u.index);

  // Per-user file layout, so no two users share on-disk placement.
  cell.config.layout_seed = u.stream_seed;
  // An incomplete hoard invalidates the paper's no-sync idealisation:
  // those users pay for replica synchronization traffic.
  if (u.hoard_coverage < spec.sync_coverage_threshold) {
    cell.config.sync.emplace();
  }
  if (u.fault_seed != 0) {
    cell.config.faults = faults::generate_schedule(u.fault_seed);
  }
  if (config.telemetry) {
    cell.config.telemetry.enabled = true;  // metrics-only: ring stays 0
  }
  return cell;
}

BlockSummary run_block(const FleetConfig& config,
                       const PopulationGenerator& gen,
                       ScenarioCatalog& catalog, std::uint64_t block) {
  const std::uint64_t n_blocks = block_count(config);
  FF_REQUIRE(block < n_blocks, "fleet: block index out of range");

  BlockSummary summary;
  summary.block = block;
  summary.user_lo = block * config.block_size;
  summary.user_hi = std::min(summary.user_lo + config.block_size, config.users);
  for (std::uint64_t k = summary.user_lo; k < summary.user_hi; ++k) {
    const UserParams u = gen.user(k);
    const sim::SweepCell cell =
        cell_for(u, gen, catalog.bundle(u.scenario, u.think_bucket), config);
    summary.agg.add(cell, sim::run_cell(cell));
  }
  return summary;
}

ShardRunStats run_shard(const FleetConfig& config,
                        const PopulationGenerator& gen,
                        ScenarioCatalog& catalog, int shard,
                        const std::set<std::uint64_t>& done,
                        std::ostream& out) {
  FF_REQUIRE(config.workers > 0, "fleet: zero workers");
  FF_REQUIRE(shard >= 0 && shard < config.workers,
             "fleet: shard index out of range");
  const std::uint64_t n_blocks = block_count(config);
  ShardRunStats stats;
  for (std::uint64_t b = static_cast<std::uint64_t>(shard); b < n_blocks;
       b += static_cast<std::uint64_t>(config.workers)) {
    if (done.contains(b)) continue;
    const BlockSummary summary = run_block(config, gen, catalog, b);
    write_block_line(out, summary);
    out.flush();  // One durable line per block: the kill-safety unit.
    ++stats.blocks;
    stats.users += summary.user_hi - summary.user_lo;
  }
  return stats;
}

sim::SweepAggregator merge_blocks(
    const FleetConfig& config,
    const std::map<std::uint64_t, BlockSummary>& blocks) {
  const std::uint64_t n_blocks = block_count(config);
  FF_REQUIRE(blocks.size() == n_blocks,
             "fleet: merge needs every block (partial checkpoint?)");
  sim::SweepAggregator global;
  // std::map iterates in block-index order — THE fold order. Everything
  // downstream (the bit-identity gate) leans on this line.
  for (const auto& [index, summary] : blocks) {
    FF_REQUIRE(index < n_blocks, "fleet: stray block index");
    global.merge(summary.agg);
  }
  return global;
}

sim::SweepAggregator run_monolithic(const FleetConfig& config,
                                    const PopulationGenerator& gen,
                                    ScenarioCatalog& catalog) {
  const std::uint64_t n_blocks = block_count(config);
  sim::SweepAggregator global;
  for (std::uint64_t b = 0; b < n_blocks; ++b) {
    global.merge(run_block(config, gen, catalog, b).agg);
  }
  return global;
}

}  // namespace flexfetch::fleet
