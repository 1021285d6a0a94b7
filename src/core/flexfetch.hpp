// The FlexFetch policy (Section 2) — the paper's primary contribution.
//
// FlexFetch proactively selects the least costly data source per evaluation
// stage using the program's recorded profile, and adapts to run-time
// dynamics through four mechanisms, each individually toggleable (the
// FlexFetch-static variant of Section 3.3.4 disables all of them):
//
//  * splice re-evaluation (Section 2.3.1): as the current run progresses,
//    its partial profile replaces the matching prefix of the old profile
//    and the decision rule is re-run on the assembled profile;
//  * stage audit (Section 2.3.1): at each stage end, the energy actually
//    spent is compared against a shadow replay on the alternative device;
//    if the profile-driven choice lost, the winner is used next stage,
//    disregarding the profile until it is proven effective again;
//  * cache filtering (Section 2.3.2): profiled requests whose data is
//    resident in the buffer cache are dropped before estimation;
//  * free riding (Section 2.3.3): while other programs keep the disk
//    spinning (inter-arrival below the spin-down timeout), requests are
//    redirected to the almost-free disk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/estimator.hpp"
#include "core/profile.hpp"
#include "core/stage.hpp"
#include "energy/loss_curve.hpp"
#include "sim/context.hpp"
#include "sim/policy.hpp"

namespace flexfetch::core {

struct FlexFetchConfig {
  /// Maximum tolerable I/O performance loss rate, as a function of the
  /// simulator's tracked BatteryState. Every decision-rule evaluation
  /// samples it; there is no other loss-rate path. The default is the
  /// paper's fixed 25 %; battery-adaptive curves spend performance freely
  /// on wall power and aggressively near empty. Shared, stateless and
  /// const: copies of the config are cheap and decisions stay pure. Must
  /// not be null (the policy constructor throws ConfigError).
  std::shared_ptr<const energy::LossRateCurve> loss_curve =
      std::make_shared<const energy::ConstantCurve>(0.25);
  /// Minimal profiled span of an evaluation stage (paper uses 40 s).
  Seconds stage_min_length = Seconds{40.0};
  /// I/O burst threshold; <= 0 derives it from the disk's average access
  /// time at begin() (the paper's choice).
  Seconds burst_threshold = Seconds{0.0};
  /// Data source used when no profile exists for the program.
  device::DeviceKind default_source = device::DeviceKind::kDisk;
  /// Relative energy margin the alternative device must win by before a
  /// stage audit counts as a loss (damps flip-flopping on near-ties).
  double audit_margin = 0.05;
  /// A loss this large overrides immediately (a clear regime change, e.g.
  /// the stale profile of Section 3.3.5); smaller losses must repeat for
  /// `audit_confirmations` consecutive stages first.
  double audit_decisive_margin = 0.30;
  std::uint32_t audit_confirmations = 2;
  /// Relative estimated-energy improvement required before a stage-entry
  /// or splice decision abandons the currently used source. Switching has
  /// real costs (a spin-up or a mode switch, plus the other device's
  /// rundown), so near-ties stay put.
  double switch_margin = 0.05;

  bool adapt_splice = true;
  bool adapt_stage_audit = true;
  bool adapt_cache_filter = true;
  bool adapt_free_rider = true;
  /// Graceful degradation under injected faults: when the chosen source is
  /// inside a fault window at dispatch time (WNIC outage, or a disk
  /// spin-up stall while the disk is down), re-run the splice decision rule
  /// so the policy may switch sources instead of stalling through it.
  bool adapt_fault_failover = true;

  /// CPU energy charged per elementary scheme operation (one request
  /// replayed by an on-line estimator / shadow device, or one syscall
  /// tracked). ~1 us on a ~2 W-active 2007 mobile CPU. This quantifies the
  /// "time, space, and energy overhead of applying the scheme" the paper's
  /// Section 5 defers; see FlexFetchPolicy::overhead_energy().
  Joules overhead_per_op = Joules{2e-6};

  /// FlexFetch-static: profile-driven decisions with every run-time
  /// adaptation disabled.
  static FlexFetchConfig static_variant() {
    FlexFetchConfig c;
    c.adapt_splice = false;
    c.adapt_stage_audit = false;
    c.adapt_cache_filter = false;
    c.adapt_free_rider = false;
    c.adapt_fault_failover = false;
    return c;
  }
};

/// One decision-rule evaluation, kept for diagnosis and tests.
struct DecisionRecord {
  Seconds time = Seconds{0.0};
  enum class Origin : std::uint8_t { kStageEntry, kSplice } origin =
      Origin::kStageEntry;
  std::size_t stage = 0;
  std::size_t first_burst = 0;
  std::size_t burst_count = 0;
  Estimate disk;
  Estimate network;
  /// The loss rate this evaluation sampled from the curve — pins
  /// adaptive behaviour in tests and sweep deltas.
  double loss_rate = 0.0;
  device::DeviceKind decision = device::DeviceKind::kDisk;
};

/// Counters exposing how often each adaptation fired (tests/ablations).
struct FlexFetchStats {
  std::uint64_t stages_entered = 0;
  std::uint64_t splice_reevaluations = 0;
  std::uint64_t splice_switches = 0;
  std::uint64_t audit_overrides = 0;
  std::uint64_t free_rider_redirects = 0;
  std::uint64_t cache_filtered_requests = 0;
  std::uint64_t fault_reevaluations = 0;  ///< Fault-triggered decision reruns.
  std::uint64_t fault_switches = 0;       ///< ...that changed the source.

  // Scheme-overhead accounting (Section 5's deferred question).
  std::uint64_t estimator_requests_replayed = 0;
  std::uint64_t shadow_requests_replayed = 0;
  std::uint64_t syscalls_tracked = 0;

  std::uint64_t overhead_ops() const {
    return estimator_requests_replayed + shadow_requests_replayed +
           syscalls_tracked;
  }
};

class FlexFetchPolicy : public sim::Policy {
 public:
  /// Single-program form.
  FlexFetchPolicy(FlexFetchConfig config, Profile profile);

  /// Multi-program form: profiles of concurrently running programs are
  /// merged into one aggregate profile (Section 2.3.3).
  FlexFetchPolicy(FlexFetchConfig config, const std::vector<Profile>& profiles);

  // sim::Policy interface.
  void begin(sim::SimContext& ctx) override;
  device::DeviceKind select(const sim::RequestContext& req,
                            sim::SimContext& ctx) override;
  void on_syscall(const trace::SyscallRecord& r, sim::SimContext& ctx) override;
  void observe(const sim::RequestContext& req, device::DeviceKind used,
               const device::ServiceResult& result,
               sim::SimContext& ctx) override;
  void end(sim::SimContext& ctx) override;
  void export_metrics(telemetry::MetricsRegistry& metrics) const override;
  std::string name() const override;

  // Introspection.
  device::DeviceKind current_choice() const { return choice_; }
  std::size_t stage_index() const { return stage_idx_; }
  const std::vector<device::DeviceKind>& stage_choices() const {
    return stage_choices_;
  }
  const FlexFetchStats& stats() const { return stats_; }
  const FlexFetchConfig& config() const { return config_; }

  /// The profile recorded during this run (valid after end()); it replaces
  /// the old profile for the program's next execution (Section 2.3.1).
  const Profile& recorded_profile() const { return new_profile_; }

  /// Every decision-rule evaluation performed during the run.
  const std::vector<DecisionRecord>& decision_log() const {
    return decision_log_;
  }

  /// CPU energy the scheme itself spent (ops x overhead_per_op) — compare
  /// against the I/O energy it saved.
  Joules overhead_energy() const {
    return static_cast<double>(stats_.overhead_ops()) *
           config_.overhead_per_op;
  }

  /// The loss rate the next decision would use: the curve sampled at the
  /// current battery state.
  double current_loss_rate(sim::SimContext& ctx) const;

 private:
  /// current_loss_rate + bookkeeping (histogram fold, telemetry counter)
  /// — the sampling point every decision-rule evaluation goes through.
  double sample_loss_rate(sim::SimContext& ctx);

  void enter_stage(sim::SimContext& ctx);
  void finish_stage(sim::SimContext& ctx);
  void maybe_advance_stage(Seconds now, sim::SimContext& ctx);
  void maybe_splice_reevaluate(Seconds now, sim::SimContext& ctx);
  /// Pre-dispatch fault check: if the chosen source is currently faulted,
  /// re-run the decision rule (once per fault window) and maybe switch.
  void maybe_react_to_fault(sim::SimContext& ctx);

  /// Decision-rule evaluation over a burst span from the live device states.
  device::DeviceKind evaluate(std::span<const IOBurst> bursts, Seconds now,
                              sim::SimContext& ctx,
                              DecisionRecord::Origin origin,
                              std::size_t first_burst);

  std::optional<CacheFilter> make_cache_filter(sim::SimContext& ctx);
  bool free_rider_active(Seconds now, const sim::SimContext& ctx) const;

  FlexFetchConfig config_;
  Profile old_profile_;
  std::vector<Stage> stages_;
  std::vector<Bytes> prefix_bytes_;

  // Current-run observation.
  std::optional<BurstTracker> tracker_;
  Profile new_profile_;
  Bytes run_bytes_ = Bytes{0};

  // Stage machinery.
  std::size_t stage_idx_ = 0;
  Seconds stage_entry_time_ = Seconds{0.0};
  Bytes stage_bytes_done_ = Bytes{0};
  device::DeviceKind choice_ = device::DeviceKind::kDisk;
  device::DeviceKind profile_choice_ = device::DeviceKind::kDisk;
  bool trust_profile_ = true;
  device::DeviceKind forced_device_ = device::DeviceKind::kDisk;
  std::vector<device::DeviceKind> stage_choices_;

  // Splice re-evaluation.
  std::size_t splice_n_ = 1;

  // Stage audit shadow world. The shadow replays the stage's requests on
  // the alternative device with *closed-loop* timing: each request's think
  // gap (arrival minus previous completion) is preserved, so a faster
  // alternative legitimately compresses the stage and a slower one
  // stretches it — giving the audit a (time, energy) pair to judge with
  // the same rule as stage-entry decisions.
  std::optional<device::Disk> shadow_disk_;
  std::optional<device::Wnic> shadow_wnic_;
  Joules live_energy_at_stage_start_ = Joules{0.0};
  Seconds last_actual_completion_ = Seconds{0.0};
  Seconds last_shadow_completion_ = Seconds{0.0};
  std::uint32_t consecutive_audit_losses_ = 0;

  // Free rider.
  Seconds last_external_disk_activity_ = Seconds{-1e18};

  // Fault failover: start of the last fault window already reacted to,
  // so one window triggers at most one re-evaluation.
  Seconds last_fault_window_start_ = Seconds{-1.0};

  FlexFetchStats stats_;
  std::vector<DecisionRecord> decision_log_;
  /// Loss rates actually used by decisions (ff.loss_rate in metrics) —
  /// one value for a constant curve, battery-shaped for adaptive ones.
  telemetry::Histogram loss_rate_hist_;
};

}  // namespace flexfetch::core
