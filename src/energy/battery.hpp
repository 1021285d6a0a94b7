// First-class battery model: the one place a battery fraction is defined,
// clamped, and estimated.
//
// The paper's energy accounting stops at the device meters; this module
// models the *platform* those devices live in — a fixed-capacity pack, a
// base platform drain (CPU, display, chipset) outside the metered disk +
// WNIC, a wall-power flag, and an EWMA discharge-rate estimator in the
// style of the BOINC-MGE scheduler's `decode_sched_data` host-status
// averaging. From those it derives the *energy horizon* — how long the
// machine keeps running at the estimated drain — which the adaptive
// loss-rate curves (loss_curve.hpp) consume.
//
// Two consumers share this state (ROADMAP item 2): the shared medium's
// admission reporting (medium/medium.hpp re-exports BatteryParams) and the
// FlexFetch policy's per-stage loss-rate query (via SimContext::battery).
//
// Invariant: a battery fraction is produced only by this module, already
// clamped to [0, 1] by clamp_fraction(); parameters are validated by
// BatteryParams::validate() at construction sites instead of silently
// clamped downstream (tools/lint_invariants.py rule R5 bans battery
// fraction clamps outside src/energy/).
#pragma once

#include "common/units.hpp"

namespace flexfetch::energy {

/// The single clamp helper for battery fractions. Model outputs pass
/// through here; *inputs* are validated, never clamped (clamping an input
/// masks a configuration bug — see BatteryParams::validate).
double clamp_fraction(double f);

/// Per-client battery model: a linear platform drain plus the metered
/// device energy, against a fixed capacity.
struct BatteryParams {
  Joules capacity = Joules{180000.0};  ///< ~50 Wh laptop pack.
  double initial_fraction = 1.0;
  /// Platform draw outside the modeled disk + WNIC (CPU, display...).
  Watts base_drain = Watts{10.0};
  /// Plugged in: the pack does not discharge (fraction holds at
  /// initial_fraction, horizon is unbounded) and adaptive loss-rate
  /// curves treat energy as free.
  bool on_wall_power = false;

  /// FF_REQUIREs initial_fraction in [0, 1], positive capacity and
  /// non-negative base_drain. Construction sites (SharedMedium::add_client,
  /// Simulator) call this instead of masking bad input with a clamp.
  void validate() const;

  /// Energy drained by time `t` having metered `device_energy`: the base
  /// platform drain integrated over [0, t] plus the device meters. Zero
  /// on wall power.
  Joules drained_at(Seconds t, Joules device_energy) const;
  /// Fraction remaining at `t`, clamped to [0, 1]. Monotone non-increasing
  /// in both `t` and `device_energy`.
  double fraction_at(Seconds t, Joules device_energy) const;
  /// Energy remaining at `t` (capacity * fraction_at).
  Joules remaining_at(Seconds t, Joules device_energy) const;
};

/// Snapshot of battery state handed to loss-rate curves: what is left,
/// whether it matters (wall power), and how fast it is going.
struct BatteryState {
  double fraction = 1.0;
  bool on_wall_power = false;
  /// EWMA-estimated total platform draw (base + device), in watts.
  Watts drain_estimate = Watts{0.0};
  /// remaining_J / drain_estimate_W; infinity on wall power.
  Seconds horizon = Seconds{0.0};

  bool dead() const { return !on_wall_power && fraction <= 0.0; }
};

/// Observes the (time, metered device energy) trajectory of one simulator
/// and maintains the discharge-rate estimate and energy horizon.
///
/// The estimator is the BOINC-MGE `decode_sched_data` shape: each
/// accepted observation folds the interval's mean power into an EWMA with
/// a time-constant weight `alpha = 1 - exp(-dt / tau)`, so the estimate
/// is invariant to how finely the same trajectory is sampled. It is
/// seeded with the configured base drain — the best prior before any
/// device activity is observed. Deterministic: state is a pure function
/// of the observation sequence, which the simulator's event loop makes a
/// pure function of config and seeds.
class BatteryTracker {
 public:
  explicit BatteryTracker(BatteryParams params,
                          Seconds tau = Seconds{30.0},
                          Seconds min_sample_interval = Seconds{1.0});

  /// True if observe(t, ...) would accept a sample: `t` is at least
  /// min_sample_interval past the last accepted one. Checking it first lets
  /// a caller skip computing the device energy, so the hot path pays one
  /// compare per event.
  bool due(Seconds t) const { return !(t - last_t_ < min_sample_interval_); }

  /// Feeds one (simulated time, cumulative metered device energy) sample.
  /// A sample that is not due() is skipped — the next accepted sample
  /// covers the whole gap, so an exp() runs only at the sampling cadence.
  /// Time must be non-decreasing. Returns whether the sample was accepted
  /// (callers emit telemetry at that cadence).
  bool observe(Seconds t, Joules device_energy);

  const BatteryParams& params() const { return params_; }
  /// Fraction at the last accepted observation.
  double fraction() const { return fraction_; }
  /// Current EWMA total-drain estimate (base + device), in watts.
  Watts drain_estimate() const { return drain_estimate_; }
  /// Remaining energy / estimated drain; infinity on wall power, pinned
  /// at zero once the pack is empty.
  Seconds horizon() const;
  /// The whole snapshot a loss-rate curve consumes.
  BatteryState state() const;

 private:
  BatteryParams params_;
  Seconds tau_;
  Seconds min_sample_interval_;
  Seconds last_t_ = Seconds{0.0};
  Joules last_device_energy_ = Joules{0.0};
  double fraction_ = 1.0;
  Watts drain_estimate_ = Watts{0.0};
};

}  // namespace flexfetch::energy
