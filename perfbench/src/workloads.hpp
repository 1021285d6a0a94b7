// The three benchmark workloads. Each builds its inputs from the seed in
// set-up (outside the timed region), runs closed-batch passes for the
// requested time, gates every pass on its digest, and reports the
// end-to-end metrics — or, in a traced run, the per-layer metrics.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "workloads/scenarios.hpp"

namespace perfbench {

/// grid: all_scenarios(seed) x 4 standard policies x 17 WNIC points,
/// streamed through run_sweep_streaming at min(nproc, 4) jobs.
Outcome run_grid(const RunOptions& opt);
std::uint64_t grid_inputs_digest(std::uint64_t seed);

/// fleet: a default population in 256-user blocks, one shard, through a
/// checkpoint file, load, merge and fingerprint.
Outcome run_fleet(const RunOptions& opt);
std::uint64_t fleet_inputs_digest(std::uint64_t seed);

/// crowd: 16 clients on one shared medium, {fifo, battery} admission x
/// {flexfetch, wnic-only}; each cell's MultiClientSim on its own thread.
Outcome run_crowd(const RunOptions& opt);
std::uint64_t crowd_inputs_digest(std::uint64_t seed);

/// Folds a scenario bundle's programs, profiles and oracle trace.
std::uint64_t digest_bundle(std::uint64_t h,
                            const flexfetch::workloads::ScenarioBundle& b);

}  // namespace perfbench
