#include "energy/battery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace flexfetch::energy {

double clamp_fraction(double f) { return std::clamp(f, 0.0, 1.0); }

void BatteryParams::validate() const {
  FF_REQUIRE(initial_fraction >= 0.0 && initial_fraction <= 1.0,
             "battery: initial_fraction must be in [0, 1]");
  FF_REQUIRE(capacity > Joules{}, "battery: capacity must be positive");
  FF_REQUIRE(base_drain >= Watts{}, "battery: base_drain must be non-negative");
}

Joules BatteryParams::drained_at(Seconds t, Joules device_energy) const {
  if (on_wall_power) return Joules{0.0};
  return base_drain * t + device_energy;
}

double BatteryParams::fraction_at(Seconds t, Joules device_energy) const {
  FF_ASSERT(capacity > Joules{});
  const double f = initial_fraction - drained_at(t, device_energy) / capacity;
  return clamp_fraction(f);
}

Joules BatteryParams::remaining_at(Seconds t, Joules device_energy) const {
  return fraction_at(t, device_energy) * capacity;
}

BatteryTracker::BatteryTracker(BatteryParams params, Seconds tau,
                               Seconds min_sample_interval)
    : params_(params), tau_(tau), min_sample_interval_(min_sample_interval) {
  params_.validate();
  FF_REQUIRE(tau_ > Seconds{}, "battery: EWMA tau must be positive");
  FF_REQUIRE(min_sample_interval_ >= Seconds{},
             "battery: negative sample interval");
  fraction_ = clamp_fraction(params_.initial_fraction);
  // Seeded with the configured platform drain: the best prior before any
  // device activity has been observed.
  drain_estimate_ = params_.base_drain;
}

bool BatteryTracker::observe(Seconds t, Joules device_energy) {
  if (!due(t)) return false;  // Folded into later samples.
  const Seconds dt = t - last_t_;
  // Mean total platform power over the skipped window: base drain plus
  // the device meters' increment. Folding the whole window at once with a
  // time-constant weight makes the estimate invariant to sampling grain.
  const double watts = params_.base_drain.value() +
                       (device_energy - last_device_energy_).value() /
                           dt.value();
  const double alpha = 1.0 - std::exp(-(dt / tau_));
  drain_estimate_ =
      Watts{drain_estimate_.value() +
            alpha * (watts - drain_estimate_.value())};
  fraction_ = params_.fraction_at(t, device_energy);
  last_t_ = t;
  last_device_energy_ = device_energy;
  return true;
}

Seconds BatteryTracker::horizon() const {
  if (params_.on_wall_power) {
    return Seconds{std::numeric_limits<double>::infinity()};
  }
  if (fraction_ <= 0.0) return Seconds{0.0};
  const Joules remaining = fraction_ * params_.capacity;
  const Watts drain =
      std::max(drain_estimate_, Watts{1e-6});  // Guard an all-zero config.
  return remaining / drain;
}

BatteryState BatteryTracker::state() const {
  return BatteryState{.fraction = fraction_,
                      .on_wall_power = params_.on_wall_power,
                      .drain_estimate = drain_estimate_,
                      .horizon = horizon()};
}

}  // namespace flexfetch::energy
