#include "workloads/scenarios.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace flexfetch::workloads {

using core::Profile;
using sim::ProgramSpec;
using trace::Trace;

namespace {

/// Shifts `second` to begin `gap` seconds after `first` ends.
Trace after(const Trace& first, Trace second, Seconds gap) {
  second.shift(first.end_time() + gap - second.start_time());
  return second;
}

Profile record_profile(const Trace& t) {
  return Profile::from_trace(t, kProfileBurstThreshold);
}

Trace merge_all(std::initializer_list<const Trace*> traces, std::string name) {
  Trace merged(std::move(name));
  for (const Trace* t : traces) merged.merge(*t);
  return merged;
}

/// Pre-compiles every program's trace so each sweep cell's Simulator reuses
/// the shared derived arrays instead of recompiling per run.
ScenarioBundle compiled(ScenarioBundle b) {
  for (auto& p : b.programs) {
    p.compiled = std::make_shared<const trace::CompiledTrace>(p.trace);
  }
  return b;
}

// Tuning application. Every helper is the exact identity at scale 1.0
// (the early return below, plus IEEE `x * 1.0 == x` for the think
// scalings), which is what keeps the default-tuned bundles bit-identical
// to the historical ones.

std::size_t scale_count(std::size_t n, double s, std::size_t floor_count) {
  if (s == 1.0) return n;
  const auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(n) * s));
  return std::max(scaled, floor_count);
}

Bytes scale_bytes(Bytes b, double s) {
  if (s == 1.0) return b;
  const auto scaled = static_cast<std::uint64_t>(
      std::llround(b.as_double() * s));
  return std::max(Bytes{scaled}, Bytes{4096});
}

GrepParams tuned(GrepParams p, const ScenarioTuning& t) {
  p.file_count = scale_count(p.file_count, t.workload_scale, 8);
  p.total_bytes = scale_bytes(p.total_bytes, t.workload_scale);
  p.per_file_think_mean = p.per_file_think_mean * t.think_scale;
  return p;
}

MakeParams tuned(MakeParams p, const ScenarioTuning& t) {
  p.compile_units = scale_count(p.compile_units, t.workload_scale, 4);
  p.header_pool = scale_count(p.header_pool, t.workload_scale, 8);
  p.compile_think_mean = p.compile_think_mean * t.think_scale;
  return p;
}

XmmsParams tuned(XmmsParams p, const ScenarioTuning& t) {
  p.song_count = scale_count(p.song_count, t.workload_scale, 4);
  return p;
}

MplayerParams tuned(MplayerParams p, const ScenarioTuning& t) {
  p.movie_count = scale_count(p.movie_count, t.workload_scale, 1);
  p.movie_bytes = scale_bytes(p.movie_bytes, t.workload_scale);
  p.aux_files = scale_count(p.aux_files, t.workload_scale, 4);
  p.chunk_period = p.chunk_period * t.think_scale;
  return p;
}

ThunderbirdParams tuned(ThunderbirdParams p, const ScenarioTuning& t) {
  p.mailbox_count = scale_count(p.mailbox_count, t.workload_scale, 2);
  p.mailbox_bytes = scale_bytes(p.mailbox_bytes, t.workload_scale);
  p.small_files = scale_count(p.small_files, t.workload_scale, 4);
  p.emails_read = scale_count(p.emails_read, t.workload_scale, 3);
  p.read_think_mean = p.read_think_mean * t.think_scale;
  return p;
}

AcroreadParams tuned(AcroreadParams p, const ScenarioTuning& t) {
  p.file_count = scale_count(p.file_count, t.workload_scale, 2);
  p.file_bytes = scale_bytes(p.file_bytes, t.workload_scale);
  p.searches = scale_count(p.searches, t.workload_scale, 2);
  p.interval = p.interval * t.think_scale;
  return p;
}

/// grep followed by make, as two profiled programs. `run` selects the
/// execution (profiling runs and evaluation runs use different run seeds
/// but the same structure seed, so they touch the same files).
struct GrepMake {
  Trace grep;
  Trace make;
};

GrepMake build_grep_make(std::uint64_t seed, std::uint64_t run,
                         const ScenarioTuning& t) {
  GrepMake g;
  g.grep = grep_trace(tuned(GrepParams{}, t), seed, run);
  g.make =
      after(g.grep, make_trace(tuned(MakeParams{}, t), seed, run), Seconds{2.0});
  return g;
}

}  // namespace

void ScenarioTuning::validate() const {
  FF_REQUIRE(std::isfinite(think_scale) && think_scale > 0.0,
             "scenario tuning: think_scale must be finite and > 0");
  FF_REQUIRE(std::isfinite(workload_scale) && workload_scale > 0.0,
             "scenario tuning: workload_scale must be finite and > 0");
}

ScenarioBundle scenario_grep_make(std::uint64_t seed,
                                  const ScenarioTuning& tuning) {
  tuning.validate();
  const GrepMake prior =
      build_grep_make(seed, seeds::profile_run(seed), tuning);
  GrepMake eval = build_grep_make(seed, seeds::eval_run(seed), tuning);

  ScenarioBundle b;
  b.name = "grep+make";
  b.oracle_future = merge_all({&eval.grep, &eval.make}, "grep+make");
  b.profiles = {record_profile(prior.grep), record_profile(prior.make)};
  b.programs.push_back(ProgramSpec{.trace = std::move(eval.grep), .name = "grep"});
  b.programs.push_back(ProgramSpec{.trace = std::move(eval.make), .name = "make"});
  return compiled(std::move(b));
}

ScenarioBundle scenario_mplayer(std::uint64_t seed,
                                const ScenarioTuning& tuning) {
  tuning.validate();
  const MplayerParams params = tuned(MplayerParams{}, tuning);
  Trace prior = mplayer_trace(params, seed, seeds::profile_run(seed));
  Trace eval = mplayer_trace(params, seed, seeds::eval_run(seed));

  ScenarioBundle b;
  b.name = "mplayer";
  b.oracle_future = eval;
  b.profiles = {record_profile(prior)};
  b.programs.push_back(ProgramSpec{.trace = std::move(eval), .name = "mplayer"});
  return compiled(std::move(b));
}

ScenarioBundle scenario_thunderbird(std::uint64_t seed,
                                    const ScenarioTuning& tuning) {
  tuning.validate();
  const ThunderbirdParams params = tuned(ThunderbirdParams{}, tuning);
  Trace prior = thunderbird_trace(params, seed, seeds::profile_run(seed));
  Trace eval = thunderbird_trace(params, seed, seeds::eval_run(seed));

  ScenarioBundle b;
  b.name = "thunderbird";
  b.oracle_future = eval;
  b.profiles = {record_profile(prior)};
  b.programs.push_back(
      ProgramSpec{.trace = std::move(eval), .name = "thunderbird"});
  return compiled(std::move(b));
}

ScenarioBundle scenario_forced_spinup(std::uint64_t seed,
                                      const ScenarioTuning& tuning) {
  tuning.validate();
  const GrepMake prior =
      build_grep_make(seed, seeds::profile_run(seed), tuning);
  GrepMake eval = build_grep_make(seed, seeds::eval_run(seed), tuning);

  // xmms plays MP3s that exist only on the local disk, for as long as the
  // programming session lasts (Section 3.3.4).
  XmmsParams xp = tuned(XmmsParams{}, tuning);
  xp.max_duration = eval.make.end_time();
  Trace xmms = xmms_trace(xp, seed, seeds::eval_run(seed));

  ScenarioBundle b;
  b.name = "grep+make/xmms";
  b.oracle_future = merge_all({&eval.grep, &eval.make}, "grep+make");
  b.profiles = {record_profile(prior.grep), record_profile(prior.make)};
  b.programs.push_back(ProgramSpec{.trace = std::move(eval.grep), .name = "grep"});
  b.programs.push_back(ProgramSpec{.trace = std::move(eval.make), .name = "make"});
  b.programs.push_back(ProgramSpec{.trace = std::move(xmms),
                                   .name = "xmms",
                                   .profiled = false,
                                   .disk_pinned = true});
  return compiled(std::move(b));
}

ScenarioBundle scenario_stale_acroread(std::uint64_t seed,
                                       const ScenarioTuning& tuning) {
  tuning.validate();
  // The profile was recorded from a light run: 2 MB PDFs at 25 s intervals
  // (longer than the disk spin-down timeout). The current execution scans
  // 20 MB PDFs every 10 s.
  Trace prior = acroread_trace(tuned(AcroreadParams::stale_profile_run(), tuning),
                               seed, seeds::profile_run(seed));
  Trace eval = acroread_trace(tuned(AcroreadParams{}, tuning), seed,
                              seeds::eval_run(seed));

  ScenarioBundle b;
  b.name = "acroread(stale-profile)";
  b.oracle_future = eval;
  b.profiles = {record_profile(prior)};
  b.programs.push_back(ProgramSpec{.trace = std::move(eval), .name = "acroread"});
  return compiled(std::move(b));
}

ScenarioBundle scenario_grep_make(std::uint64_t seed) {
  return scenario_grep_make(seed, ScenarioTuning{});
}
ScenarioBundle scenario_mplayer(std::uint64_t seed) {
  return scenario_mplayer(seed, ScenarioTuning{});
}
ScenarioBundle scenario_thunderbird(std::uint64_t seed) {
  return scenario_thunderbird(seed, ScenarioTuning{});
}
ScenarioBundle scenario_forced_spinup(std::uint64_t seed) {
  return scenario_forced_spinup(seed, ScenarioTuning{});
}
ScenarioBundle scenario_stale_acroread(std::uint64_t seed) {
  return scenario_stale_acroread(seed, ScenarioTuning{});
}

std::vector<ScenarioBundle> all_scenarios(std::uint64_t seed,
                                          const ScenarioTuning& tuning) {
  std::vector<ScenarioBundle> out;
  out.push_back(scenario_grep_make(seed, tuning));
  out.push_back(scenario_mplayer(seed, tuning));
  out.push_back(scenario_thunderbird(seed, tuning));
  out.push_back(scenario_forced_spinup(seed, tuning));
  out.push_back(scenario_stale_acroread(seed, tuning));
  return out;
}

std::vector<ScenarioBundle> all_scenarios(std::uint64_t seed) {
  return all_scenarios(seed, ScenarioTuning{});
}

}  // namespace flexfetch::workloads
