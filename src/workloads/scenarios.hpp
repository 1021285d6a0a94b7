// The five evaluation scenarios of Section 3.3, bundled: the programs to
// replay, the prior-run profiles FlexFetch consults, and the merged future
// trace the Oracle policy sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "sim/simulator.hpp"
#include "workloads/generators.hpp"

namespace flexfetch::workloads {

/// Burst threshold used when recording profiles: the DK23DA's average
/// access time (13 ms seek + 7 ms rotation), per Section 2.1.
inline constexpr Seconds kProfileBurstThreshold = Seconds{0.020};

struct ScenarioBundle {
  std::string name;
  /// Programs of the evaluation run (replayed by the simulator).
  std::vector<sim::ProgramSpec> programs;
  /// Profiles recorded from a *prior* run (different run seed) of each
  /// profiled program — what FlexFetch consults.
  std::vector<core::Profile> profiles;
  /// Merged evaluation-run trace of the profiled programs (Oracle input).
  trace::Trace oracle_future;
};

/// Per-user variation knobs for the paper scenarios, used by the fleet
/// population (src/fleet/). The default-constructed tuning is the exact
/// identity: every scaling below short-circuits on 1.0, so
/// scenario_x(seed) and scenario_x(seed, ScenarioTuning{}) build
/// bit-identical bundles (pinned by tests).
struct ScenarioTuning {
  /// Multiplies user think/pacing times (email reading pauses, compile
  /// times, media refill periods...). >1 = a slower user.
  double think_scale = 1.0;
  /// Multiplies workload footprints (file counts, per-file bytes) —
  /// fleet sweeps run scaled-down scenario instances so a million users
  /// stay tractable while keeping each scenario's access *shape*.
  double workload_scale = 1.0;

  /// Throws ConfigError unless both scales are finite and > 0. Every tuned
  /// scenario builder below calls it first.
  void validate() const;
};

/// Section 3.3.1 — programming: grep over the source tree, then a kernel
/// build.
ScenarioBundle scenario_grep_make(std::uint64_t seed = 1);
ScenarioBundle scenario_grep_make(std::uint64_t seed,
                                  const ScenarioTuning& tuning);

/// Section 3.3.2 — media streaming with mplayer.
ScenarioBundle scenario_mplayer(std::uint64_t seed = 1);
ScenarioBundle scenario_mplayer(std::uint64_t seed,
                                const ScenarioTuning& tuning);

/// Section 3.3.3 — email reading + search with Thunderbird.
ScenarioBundle scenario_thunderbird(std::uint64_t seed = 1);
ScenarioBundle scenario_thunderbird(std::uint64_t seed,
                                    const ScenarioTuning& tuning);

/// Section 3.3.4 — grep+make while xmms (disk-pinned, unprofiled MP3s)
/// keeps the disk spinning.
ScenarioBundle scenario_forced_spinup(std::uint64_t seed = 1);
ScenarioBundle scenario_forced_spinup(std::uint64_t seed,
                                      const ScenarioTuning& tuning);

/// Section 3.3.5 — Acroread whose profile was recorded from a much lighter
/// run (2 MB PDFs at 25 s) than the current one (20 MB PDFs at 10 s).
ScenarioBundle scenario_stale_acroread(std::uint64_t seed = 1);
ScenarioBundle scenario_stale_acroread(std::uint64_t seed,
                                       const ScenarioTuning& tuning);

/// All five, in paper order.
std::vector<ScenarioBundle> all_scenarios(std::uint64_t seed = 1);
std::vector<ScenarioBundle> all_scenarios(std::uint64_t seed,
                                          const ScenarioTuning& tuning);

/// Number of scenarios all_scenarios returns (fleet population mixes
/// sample a scenario index in [0, kScenarioCount)).
inline constexpr std::size_t kScenarioCount = 5;

}  // namespace flexfetch::workloads
