// Section 3.3.5 narrative, told by the telemetry subsystem: Thunderbird is
// run against a *stale* profile (recorded from a much lighter session), so
// the profile-driven stage choices keep losing the post-stage audit until
// FlexFetch stops trusting the profile and overrides it with measured
// estimates. The policy-track events show the audit-loss → profile-override
// sequence directly; the full trace is written as Chrome trace_event JSON
// for chrome://tracing or https://ui.perfetto.dev.
//
//   ./build/examples/trace_stage_audit [seed] [--trace-out FILE]

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <string_view>

#include "common/format.hpp"
#include "core/flexfetch.hpp"
#include "core/profile.hpp"
#include "sim/simulator.hpp"
#include "telemetry/exporters.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

using namespace flexfetch;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [seed] [--trace-out FILE]\n", argv0);
  return 2;
}

void print_event(const telemetry::TraceEvent& ev) {
  std::printf("  t=%8.1fs  %-16s", ev.start.value(), ev.name);
  for (std::size_t i = 0; i < ev.n_args; ++i) {
    const telemetry::Arg& a = ev.args[i];
    if (a.str != nullptr) {
      std::printf("  %s=%s", a.key, a.str);
    } else {
      std::printf("  %s=%.6g", a.key, a.num);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::string trace_out = "trace_stage_audit.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      seed = std::strtoull(argv[i], nullptr, 10);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }

  // The stale profile: Thunderbird as recorded weeks ago — tiny mailboxes,
  // small reads. The current session (default parameters) searches 26 MB
  // mailboxes, so every profile-driven estimate is far too optimistic.
  workloads::ThunderbirdParams light;
  light.mailbox_bytes = 2 * kMiB;
  light.email_read_bytes = 16 * kKiB;
  light.search_chunk = 64 * kKiB;
  const trace::Trace prior =
      workloads::thunderbird_trace(light, seed, seed * 2);
  trace::Trace eval = workloads::thunderbird_trace(
      workloads::ThunderbirdParams{}, seed, seed * 2 + 1);

  const std::vector<core::Profile> profiles = {
      core::Profile::from_trace(prior, workloads::kProfileBurstThreshold)};
  const std::vector<sim::ProgramSpec> programs = sim::compile_programs(
      {sim::ProgramSpec{.trace = std::move(eval), .name = "thunderbird"}});

  const trace::TraceStats eval_stats = programs[0].trace.stats();
  std::printf("stale profile: %zu bursts, %s (current run reads %s)\n",
              profiles[0].size(),
              format_bytes(profiles[0].total_bytes()).c_str(),
              format_bytes(eval_stats.bytes_read).c_str());

  sim::SimConfig config;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;
  core::FlexFetchPolicy policy(core::FlexFetchConfig{}, profiles);
  sim::Simulator simulator(config, programs, policy);
  const sim::SimResult r = simulator.run();

  std::printf("\npolicy timeline (audit outcomes and overrides):\n");
  std::uint64_t losses = 0;
  std::uint64_t overrides = 0;
  for (const auto& ev : r.trace_events) {
    if (ev.track != telemetry::track::kPolicy) continue;
    const std::string_view name(ev.name);
    if (name == "stage.enter" || name == "audit.win" ||
        name == "audit.loss" || name == "profile.override") {
      print_event(ev);
      if (name == "audit.loss") ++losses;
      if (name == "profile.override") ++overrides;
    }
  }

  std::printf("\n%llu audit losses, %llu profile overrides "
              "(ff.audit_overrides=%.0f)\n",
              static_cast<unsigned long long>(losses),
              static_cast<unsigned long long>(overrides),
              r.metrics.value("ff.audit_overrides"));
  std::printf("energy %s, makespan %s\n",
              format_joules(r.total_energy()).c_str(),
              format_seconds(r.makespan).c_str());
  if (overrides == 0) {
    std::fprintf(stderr, "expected at least one profile override — the "
                         "profile was not stale enough\n");
    return 1;
  }

  std::ofstream os(trace_out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
    return 1;
  }
  telemetry::write_chrome_trace(
      os, std::span<const telemetry::TraceEvent>(r.trace_events),
      r.trace_events_dropped, &r.metrics);
  std::printf("wrote Chrome trace to %s\n", trace_out.c_str());
  return 0;
}
