#include "core/flexfetch.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "faults/audit.hpp"
#include "faults/schedule.hpp"
#include "telemetry/emit.hpp"
#include "telemetry/metrics.hpp"

namespace flexfetch::core {

using device::DeviceKind;

namespace {

namespace tele = flexfetch::telemetry;

// Policy decisions and fault reactions are the cheapest, highest-signal
// events — admission level kKey so a near-silent capture still tells the
// decision story.
constexpr tele::EventDesc kDecisionStage{
    .name = "decision.stage",
    .category = tele::Category::kPolicy,
    .phase = tele::Phase::kInstant,
    .level = tele::Level::kKey,
    .n_args = 6,
    .str_mask = 0b100000,
    .track = tele::track::kPolicy,
    .keys = {"stage", "disk_t_s", "disk_e_j", "net_t_s", "net_e_j", "choice"}};

constexpr tele::EventDesc kDecisionSplice{
    .name = "decision.splice",
    .category = tele::Category::kPolicy,
    .phase = tele::Phase::kInstant,
    .level = tele::Level::kKey,
    .n_args = 6,
    .str_mask = 0b100000,
    .track = tele::track::kPolicy,
    .keys = {"stage", "disk_t_s", "disk_e_j", "net_t_s", "net_e_j", "choice"}};

constexpr tele::EventDesc kStageEnter{
    .name = "stage.enter",
    .category = tele::Category::kPolicy,
    .phase = tele::Phase::kInstant,
    .level = tele::Level::kKey,
    .n_args = 3,
    .str_mask = 0b010,
    .track = tele::track::kPolicy,
    .keys = {"stage", "choice", "trust_profile"}};

constexpr tele::EventDesc kAuditWin{
    .name = "audit.win",
    .category = tele::Category::kPolicy,
    .phase = tele::Phase::kInstant,
    .level = tele::Level::kKey,
    .n_args = 6,
    .str_mask = 0b100000,
    .track = tele::track::kPolicy,
    .keys = {"stage", "actual_t_s", "actual_e_j", "alt_t_s", "alt_e_j",
             "winner"}};

constexpr tele::EventDesc kAuditLoss{
    .name = "audit.loss",
    .category = tele::Category::kPolicy,
    .phase = tele::Phase::kInstant,
    .level = tele::Level::kKey,
    .n_args = 6,
    .str_mask = 0b100000,
    .track = tele::track::kPolicy,
    .keys = {"stage", "actual_t_s", "actual_e_j", "alt_t_s", "alt_e_j",
             "winner"}};

constexpr tele::EventDesc kProfileOverride{.name = "profile.override",
                                           .category = tele::Category::kPolicy,
                                           .phase = tele::Phase::kInstant,
                                           .level = tele::Level::kKey,
                                           .n_args = 2,
                                           .str_mask = 0b10,
                                           .track = tele::track::kPolicy,
                                           .keys = {"stage", "to"}};

constexpr tele::EventDesc kStageSpan{.name = "stage",
                                     .category = tele::Category::kPolicy,
                                     .phase = tele::Phase::kSpan,
                                     .level = tele::Level::kKey,
                                     .n_args = 2,
                                     .str_mask = 0b10,
                                     .track = tele::track::kPolicy,
                                     .keys = {"stage", "choice"}};

constexpr tele::EventDesc kSpliceSwitch{.name = "splice.switch",
                                        .category = tele::Category::kPolicy,
                                        .phase = tele::Phase::kInstant,
                                        .level = tele::Level::kKey,
                                        .n_args = 2,
                                        .str_mask = 0b10,
                                        .track = tele::track::kPolicy,
                                        .keys = {"stage", "to"}};

constexpr tele::EventDesc kFaultReevaluate{.name = "fault.reevaluate",
                                           .category = tele::Category::kFault,
                                           .phase = tele::Phase::kInstant,
                                           .level = tele::Level::kKey,
                                           .n_args = 2,
                                           .str_mask = 0b01,
                                           .track = tele::track::kFault,
                                           .keys = {"source", "window_start"}};

constexpr tele::EventDesc kFaultSwitch{.name = "fault.switch",
                                       .category = tele::Category::kFault,
                                       .phase = tele::Phase::kInstant,
                                       .level = tele::Level::kKey,
                                       .n_args = 1,
                                       .str_mask = 0b1,
                                       .track = tele::track::kFault,
                                       .keys = {"to"}};

constexpr tele::EventDesc kFreeRide{.name = "free_ride",
                                    .category = tele::Category::kPolicy,
                                    .phase = tele::Phase::kInstant,
                                    .level = tele::Level::kKey,
                                    .track = tele::track::kPolicy};

constexpr tele::EventDesc kLossRate{.name = "ff.loss_rate",
                                    .category = tele::Category::kBattery,
                                    .phase = tele::Phase::kCounter,
                                    .level = tele::Level::kVerbose,
                                    .track = tele::track::kBattery};

}  // namespace

FlexFetchPolicy::FlexFetchPolicy(FlexFetchConfig config, Profile profile)
    : config_(config), old_profile_(std::move(profile)) {
  FF_REQUIRE(config.loss_curve != nullptr, "flexfetch: null loss curve");
  FF_REQUIRE(config.stage_min_length > Seconds{}, "flexfetch: non-positive stage length");
}

FlexFetchPolicy::FlexFetchPolicy(FlexFetchConfig config,
                                 const std::vector<Profile>& profiles)
    : FlexFetchPolicy(config, Profile::merge(profiles, "<merged>")) {}

std::string FlexFetchPolicy::name() const {
  const bool is_static = !config_.adapt_splice && !config_.adapt_stage_audit &&
                         !config_.adapt_cache_filter && !config_.adapt_free_rider;
  std::string n = is_static ? "FlexFetch-static" : "FlexFetch";
  // A constant curve is the paper's fixed rate: plain FlexFetch.
  if (dynamic_cast<const energy::ConstantCurve*>(config_.loss_curve.get()) == nullptr) {
    n += "-adaptive(" + config_.loss_curve->name() + ")";
  }
  return n;
}

double FlexFetchPolicy::current_loss_rate(sim::SimContext& ctx) const {
  // No tracker (a context built outside a Simulator): a default
  // BatteryState — full charge, on battery — is the conservative read.
  const energy::BatteryState state = ctx.battery() != nullptr
                                         ? ctx.battery()->state()
                                         : energy::BatteryState{};
  return config_.loss_curve->loss_rate(state);
}

double FlexFetchPolicy::sample_loss_rate(sim::SimContext& ctx) {
  const double rate = current_loss_rate(ctx);
  loss_rate_hist_.record(rate);
  FF_EMIT_COUNTER(ctx.recorder(), kLossRate, ctx.now(), rate);
  return rate;
}

void FlexFetchPolicy::begin(sim::SimContext& ctx) {
  if (config_.burst_threshold <= Seconds{}) {
    // The paper sets the burst threshold to the disk's average access time.
    config_.burst_threshold = ctx.disk().params().access_time();
  }
  tracker_.emplace(config_.burst_threshold);
  stages_ = segment_stages(old_profile_, config_.stage_min_length);
  prefix_bytes_ = old_profile_.byte_prefix_sums();
  choice_ = config_.default_source;
  enter_stage(ctx);
}

std::optional<CacheFilter> FlexFetchPolicy::make_cache_filter(
    sim::SimContext& ctx) {
  if (!config_.adapt_cache_filter) return std::nullopt;
  // Section 2.3.2: profiled requests whose data is resident in the buffer
  // cache will not reach any device and are removed before estimation.
  return CacheFilter([this, &ctx](const BurstRequest& r) {
    const bool cached =
        ctx.vfs().range_cached_pages(r.inode, r.first_page(), r.end_page());
    if (cached) ++stats_.cache_filtered_requests;
    return cached;
  });
}

DeviceKind FlexFetchPolicy::evaluate(std::span<const IOBurst> bursts,
                                     Seconds now, sim::SimContext& ctx,
                                     DecisionRecord::Origin origin,
                                     std::size_t first_burst) {
  auto filter = make_cache_filter(ctx);
  const CacheFilter* f = filter ? &*filter : nullptr;
  for (const IOBurst& b : bursts) {
    stats_.estimator_requests_replayed += 2 * b.requests.size();
  }
  // Estimate-purity probe: the two counterfactual replays below must leave
  // the live devices and the recorder untouched.
  faults::SimAudit* audit = ctx.audit();
  std::optional<faults::PuritySnapshot> purity;
  if (audit != nullptr) {
    purity = audit->capture(ctx.disk(), ctx.wnic(), ctx.recorder());
  }
  const Estimate disk =
      SourceEstimator::estimate_disk(ctx.disk(), bursts, now, ctx.layout(), f);
  const Estimate net =
      SourceEstimator::estimate_network(ctx.wnic(), bursts, now, f);
  if (audit != nullptr) {
    audit->check_estimate_purity(*purity, ctx.disk(), ctx.wnic(),
                                 ctx.recorder());
  }
  const double loss_rate = sample_loss_rate(ctx);
  DeviceKind decision = decide_source(disk, net, loss_rate);
  // Hysteresis: abandoning the currently used source needs a clear
  // estimated win; switching itself costs a transition on one device and a
  // rundown on the other.
  if (decision != choice_) {
    const Joules current_cost =
        choice_ == DeviceKind::kDisk ? disk.energy : net.energy;
    const Joules new_cost =
        decision == DeviceKind::kDisk ? disk.energy : net.energy;
    if (new_cost > current_cost * (1.0 - config_.switch_margin)) {
      decision = choice_;
    }
  }
  decision_log_.push_back(DecisionRecord{.time = now,
                                         .origin = origin,
                                         .stage = stage_idx_,
                                         .first_burst = first_burst,
                                         .burst_count = bursts.size(),
                                         .disk = disk,
                                         .network = net,
                                         .loss_rate = loss_rate,
                                         .decision = decision});
  FF_EMIT_INSTANT(ctx.recorder(),
                  origin == DecisionRecord::Origin::kStageEntry
                      ? kDecisionStage
                      : kDecisionSplice,
                  now, static_cast<double>(stage_idx_), disk.time.value(),
                  disk.energy.value(), net.time.value(), net.energy.value(),
                  device::to_string(decision));
  return decision;
}

void FlexFetchPolicy::enter_stage(sim::SimContext& ctx) {
  const Seconds now = ctx.now();
  stage_entry_time_ = now;
  stage_bytes_done_ = Bytes{};
  ++stats_.stages_entered;

  if (stage_idx_ < stages_.size()) {
    const Stage& st = stages_[stage_idx_];
    profile_choice_ =
        evaluate(old_profile_.span(st.first_burst, st.burst_count), now, ctx,
                 DecisionRecord::Origin::kStageEntry, st.first_burst);
  } else if (!old_profile_.empty()) {
    // Profile exhausted: keep the last profile-driven choice.
    // (The audit keeps correcting it stage by stage.)
  } else {
    profile_choice_ = config_.default_source;
  }
  choice_ = trust_profile_ ? profile_choice_ : forced_device_;
  stage_choices_.push_back(choice_);
  FF_EMIT_INSTANT(ctx.recorder(), kStageEnter, now,
                  static_cast<double>(stage_idx_), device::to_string(choice_),
                  trust_profile_ ? 1.0 : 0.0);

  if (config_.adapt_stage_audit) {
    // Detached copies: shadow replays must never emit into the live
    // recorder (they share the fault schedule, like estimator replicas).
    shadow_disk_ = ctx.disk().detached_copy();
    shadow_wnic_ = ctx.wnic().detached_copy();
    shadow_disk_->reset_accounting();
    shadow_wnic_->reset_accounting();
    live_energy_at_stage_start_ =
        ctx.disk().meter().total() + ctx.wnic().meter().total();
    last_actual_completion_ = now;
    last_shadow_completion_ = now;
  }
}

void FlexFetchPolicy::finish_stage(sim::SimContext& ctx) {
  const Seconds now = ctx.now();
  if (config_.adapt_stage_audit && shadow_disk_ && shadow_wnic_ &&
      last_actual_completion_ > stage_entry_time_) {
    // The alternative world stops burning when it finishes the stage's
    // work; its compressed (or stretched) closed-loop timeline is its T.
    shadow_disk_->advance_to(last_shadow_completion_);
    shadow_wnic_->advance_to(last_shadow_completion_);
    const Estimate actual{
        .time = last_actual_completion_ - stage_entry_time_,
        .energy = ctx.disk().meter().total() + ctx.wnic().meter().total() -
                  live_energy_at_stage_start_,
    };
    const Estimate alternative{
        .time = last_shadow_completion_ - stage_entry_time_,
        .energy =
            shadow_disk_->meter().total() + shadow_wnic_->meter().total(),
    };
    // Judge with the same rule used for predictions, on measured values.
    const Estimate& disk_est =
        choice_ == DeviceKind::kDisk ? actual : alternative;
    const Estimate& net_est =
        choice_ == DeviceKind::kDisk ? alternative : actual;
    // The audit judges with the rate that applies *now* — adaptive curves
    // legitimately tighten or relax the verdict as the battery drains.
    DeviceKind winner = decide_source(disk_est, net_est, sample_loss_rate(ctx));
    const DeviceKind measured_winner = winner;
    // Hysteresis: only declare the alternative the winner when it is
    // materially better, so near-ties do not cause flip-flopping (each flip
    // risks a spin-up or a mode switch). A decisive loss (a clear regime
    // change) overrides at once; marginal losses must repeat.
    if (winner != choice_) {
      const double saving = actual.energy > Joules{}
                                ? 1.0 - alternative.energy / actual.energy
                                : 0.0;
      if (saving < config_.audit_margin) {
        winner = choice_;  // Near-tie: not a loss at all.
        consecutive_audit_losses_ = 0;
      } else if (saving < config_.audit_decisive_margin &&
                 ++consecutive_audit_losses_ < config_.audit_confirmations) {
        winner = choice_;  // Marginal: wait for confirmation.
      } else {
        consecutive_audit_losses_ = 0;
      }
    } else {
      consecutive_audit_losses_ = 0;
    }
    // audit.win/loss reports the measured verdict (before hysteresis);
    // profile.override below marks the verdicts that actually take effect.
    FF_EMIT_INSTANT(ctx.recorder(),
                    measured_winner == choice_ ? kAuditWin : kAuditLoss, now,
                    static_cast<double>(stage_idx_), actual.time.value(),
                    actual.energy.value(), alternative.time.value(),
                    alternative.energy.value(), device::to_string(winner));
    if (winner != choice_) {
      ++stats_.audit_overrides;
      FF_EMIT_INSTANT(ctx.recorder(), kProfileOverride, now,
                      static_cast<double>(stage_idx_),
                      device::to_string(winner));
    }
    // The profile regains control only when its own choice for the stage
    // proved the more energy-efficient one (Section 2.3.1: "Only when the
    // profile for the previous stage is proven more effective is the
    // profile used for the next stage").
    trust_profile_ = (winner == profile_choice_);
    forced_device_ = winner;
  }
  FF_EMIT_SPAN(ctx.recorder(), kStageSpan, stage_entry_time_, now,
               static_cast<double>(stage_idx_), device::to_string(choice_));
  ++stage_idx_;
}

void FlexFetchPolicy::maybe_advance_stage(Seconds now, sim::SimContext& ctx) {
  while (true) {
    Bytes bytes_target{std::numeric_limits<std::uint64_t>::max()};
    Seconds length_target = config_.stage_min_length;
    if (stage_idx_ < stages_.size()) {
      const Stage& st = stages_[stage_idx_];
      // Stage progress is tracked primarily by requested data volume — the
      // same yardstick Section 2.3.1 uses to align the current run with the
      // profile. Wall-clock is only a generous fallback (2x the profiled
      // stage span) so a run that requests less data than profiled cannot
      // stall; advancing by time alone would let stage boundaries drift
      // ahead of the workload's real phases.
      bytes_target = st.bytes;
      length_target = 2.0 * std::max(st.length, config_.stage_min_length);
    }
    const bool bytes_done = stage_bytes_done_ >= bytes_target;
    const bool time_done = now - stage_entry_time_ >= length_target;
    if (!bytes_done && !time_done) return;
    finish_stage(ctx);
    enter_stage(ctx);
  }
}

void FlexFetchPolicy::maybe_splice_reevaluate(Seconds now,
                                              sim::SimContext& ctx) {
  if (!config_.adapt_splice || stages_.empty()) return;
  // Section 2.3.1: whenever the data requested in the current run just
  // exceeds the amount in the first N bursts of the old profile, the new
  // partial profile replaces those N bursts and the rule is re-run on the
  // assembled profile. Re-running the rule over the *future* portion of
  // the assembled profile (the old bursts from N to the end of the current
  // stage) is the operative part of that re-evaluation: the replaced
  // prefix is already in the past.
  bool reevaluated = false;
  while (splice_n_ < prefix_bytes_.size() && run_bytes_ > prefix_bytes_[splice_n_]) {
    reevaluated = true;
    ++splice_n_;
  }
  if (!reevaluated) return;
  const std::size_t n = splice_n_ - 1;
  const std::size_t stage_end = stage_idx_ < stages_.size()
                                    ? stages_[stage_idx_].end_burst()
                                    : old_profile_.size();
  if (n >= stage_end) return;  // Stage boundary logic will handle it.
  // Skip re-evaluation over a stub horizon: estimates over a fraction of a
  // stage truncate the devices' post-horizon behaviour and produce noisy
  // flips right before stage boundaries.
  const Seconds horizon =
      old_profile_[stage_end - 1].end() - old_profile_[n].start;
  if (horizon < config_.stage_min_length) return;
  ++stats_.splice_reevaluations;
  const DeviceKind decision =
      evaluate(old_profile_.span(n, stage_end - n), now, ctx,
               DecisionRecord::Origin::kSplice, n);
  if (trust_profile_ && decision != choice_) {
    choice_ = decision;
    profile_choice_ = decision;
    ++stats_.splice_switches;
    FF_EMIT_INSTANT(ctx.recorder(), kSpliceSwitch, now,
                    static_cast<double>(stage_idx_),
                    device::to_string(decision));
  }
}

void FlexFetchPolicy::on_syscall(const trace::SyscallRecord& r,
                                 sim::SimContext& ctx) {
  tracker_->on_record(r);
  ++stats_.syscalls_tracked;
  if (r.is_data_transfer()) {
    run_bytes_ += r.size;
    stage_bytes_done_ += r.size;
  }
  maybe_advance_stage(ctx.now(), ctx);
  maybe_splice_reevaluate(ctx.now(), ctx);
}

bool FlexFetchPolicy::free_rider_active(Seconds now,
                                        const sim::SimContext& ctx) const {
  if (!config_.adapt_free_rider) return false;
  // Section 2.3.3: while non-profiled disk activity recurs faster than the
  // spin-down timeout, the disk will stay spinning anyhow — ride along.
  return ctx.disk().is_spinning() &&
         now - last_external_disk_activity_ <
             ctx.disk().params().spin_down_timeout;
}

void FlexFetchPolicy::maybe_react_to_fault(sim::SimContext& ctx) {
  if (!config_.adapt_fault_failover) return;
  const faults::FaultSchedule* fs = ctx.faults();
  if (fs == nullptr) return;
  const Seconds now = ctx.now();
  // Is the source we are about to dispatch to inside a fault window? For
  // the disk, a spin-up stall only matters when a spin-up is actually
  // pending (a spinning disk services through a stall window unaffected).
  Seconds window_start = Seconds{-1.0};
  if (choice_ == DeviceKind::kNetwork) {
    if (const faults::OutageWindow* w = fs->wnic.outage_at(now)) {
      window_start = w->start;
    }
  } else if (!ctx.disk().is_spinning()) {
    if (const faults::SpinUpStall* s = fs->disk.stall_at(now)) {
      window_start = s->start;
    }
  }
  // One reaction per window: the re-evaluation already priced the whole
  // window into its decision, so repeating it every request inside the
  // same window could only flip-flop.
  if (window_start < Seconds{} || window_start == last_fault_window_start_) return;
  last_fault_window_start_ = window_start;
  ++stats_.fault_reevaluations;
  FF_EMIT_INSTANT(ctx.recorder(), kFaultReevaluate, now,
                  device::to_string(choice_), window_start.value());
  // Re-run the splice decision over the remainder of the stage. The
  // estimators replay on copies that share the live fault schedule, so the
  // faulted source is priced with the stall it would actually suffer — the
  // normal decision rule then decides whether waiting out the fault beats
  // switching (a short outage may well be cheaper than a spin-up).
  const std::size_t n = splice_n_ - 1;
  const std::size_t stage_end = stage_idx_ < stages_.size()
                                    ? stages_[stage_idx_].end_burst()
                                    : old_profile_.size();
  DeviceKind decision;
  if (!old_profile_.empty() && n < stage_end) {
    decision = evaluate(old_profile_.span(n, stage_end - n), now, ctx,
                        DecisionRecord::Origin::kSplice, n);
  } else {
    // No profiled horizon to price against: a disconnected network source
    // falls back to the disk; a stalled disk has no cheaper alternative
    // worth guessing at (the network may be faulted too), so stay put.
    decision = choice_ == DeviceKind::kNetwork ? DeviceKind::kDisk : choice_;
  }
  if (decision != choice_) {
    choice_ = decision;
    if (trust_profile_) profile_choice_ = decision;
    ++stats_.fault_switches;
    FF_EMIT_INSTANT(ctx.recorder(), kFaultSwitch, now,
                    device::to_string(decision));
  }
}

DeviceKind FlexFetchPolicy::select(const sim::RequestContext& /*req*/,
                                   sim::SimContext& ctx) {
  maybe_react_to_fault(ctx);
  if (choice_ == DeviceKind::kNetwork && free_rider_active(ctx.now(), ctx)) {
    ++stats_.free_rider_redirects;
    FF_EMIT_INSTANT(ctx.recorder(), kFreeRide, ctx.now());
    return DeviceKind::kDisk;
  }
  return choice_;
}

void FlexFetchPolicy::observe(const sim::RequestContext& req,
                              DeviceKind used,
                              const device::ServiceResult& result,
                              sim::SimContext& /*ctx*/) {
  // Track foreign disk activity for the free-rider mechanism. Write-back
  // traffic is excluded: it follows this policy's own device choice, so
  // counting it would let FlexFetch bootstrap its own "forced spin-up"
  // (flush lands on disk -> free-ride -> disk stays up -> repeat). Only
  // other programs' requests — disk-pinned data or unprofiled readers —
  // genuinely force the disk to stay spinning (Section 2.3.3).
  const bool external =
      !req.is_writeback && (!req.profiled || req.disk_pinned);
  if (used == DeviceKind::kDisk && external) {
    last_external_disk_activity_ = result.completion;
  }

  // Shadow replay for the stage audit: the alternative world services our
  // choosable requests on the other device; pinned requests stay on the
  // disk in both worlds. Timing is closed-loop: the think gap before this
  // request (relative to the previous completion) is preserved, so the
  // shadow timeline compresses when the alternative is faster.
  if (config_.adapt_stage_audit && shadow_disk_ && shadow_wnic_) {
    const Seconds think_gap =
        std::max(Seconds{}, result.arrival - last_actual_completion_);
    const Seconds alt_arrival = last_shadow_completion_ + think_gap;
    const DeviceKind alt = req.disk_pinned
                               ? DeviceKind::kDisk
                               : device::other(choice_);
    const device::ServiceResult alt_result =
        alt == DeviceKind::kDisk
            ? shadow_disk_->service(alt_arrival, req.request)
            : shadow_wnic_->service(alt_arrival, req.request);
    last_shadow_completion_ = alt_result.completion;
    last_actual_completion_ = result.completion;
    ++stats_.shadow_requests_replayed;
  }
}

void FlexFetchPolicy::export_metrics(telemetry::MetricsRegistry& m) const {
  using enum telemetry::MetricId;
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  m.add(kFfStagesEntered, num(stats_.stages_entered));
  m.add(kFfSpliceReevaluations, num(stats_.splice_reevaluations));
  m.add(kFfSpliceSwitches, num(stats_.splice_switches));
  m.add(kFfAuditOverrides, num(stats_.audit_overrides));
  m.add(kFfFreeRiderRedirects, num(stats_.free_rider_redirects));
  m.add(kFfCacheFilteredRequests, num(stats_.cache_filtered_requests));
  m.add(kFfFaultReevaluations, num(stats_.fault_reevaluations));
  m.add(kFfFaultSwitches, num(stats_.fault_switches));
  m.add(kFfEstimatorRequestsReplayed, num(stats_.estimator_requests_replayed));
  m.add(kFfShadowRequestsReplayed, num(stats_.shadow_requests_replayed));
  m.add(kFfSyscallsTracked, num(stats_.syscalls_tracked));
  m.set(kFfOverheadEnergyJ, overhead_energy().value());
  if (!loss_rate_hist_.empty()) {
    m.histogram(telemetry::HistId::kLossRate).merge(loss_rate_hist_);
  }
}

void FlexFetchPolicy::end(sim::SimContext& ctx) {
  maybe_advance_stage(ctx.now(), ctx);
  new_profile_ = Profile(old_profile_.program().empty() ? "<recorded>"
                                                        : old_profile_.program(),
                         tracker_->take_bursts());
}

}  // namespace flexfetch::core
