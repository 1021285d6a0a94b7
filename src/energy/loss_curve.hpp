// Pluggable loss-rate curves: how much I/O performance FlexFetch may
// sacrifice for energy, as a function of battery state.
//
// The paper fixes the maximum tolerable performance loss rate at 25%
// (Section 2.2); this interface makes it a function of the battery model
// (battery.hpp), in the shape of eh-sim's pluggable `eh_scheme`: one
// virtual query per decision, implementations are tiny value types.
//
//   constant@R          — always R. The paper's fixed rate: every plain
//                         "flexfetch" policy samples `constant@0.25`
//                         (or its cell's loss_rate), so FlexFetch has one
//                         loss-rate path.
//   linear[@F:E]        — F + (E - F) * (1 - fraction). The fleet's
//                         PopulationGenerator::loss_rate_for interpolation,
//                         promoted to a first-class curve (the fleet now
//                         delegates here; its arithmetic is frozen).
//   step[@T:A:B]        — A while fraction > T, B at or below (a low-power
//                         mode threshold).
//   horizon-ratio[@H:F:E] — F + (E - F) * H / (H + horizon): long horizon
//                         behaves like a full battery, horizon -> 0
//                         saturates at E (loss_rate_empty).
//
// Wall power: every curve except `constant` returns 0 when plugged in —
// energy is free, so no performance is traded for it. `constant` ignores
// state entirely (that is its contract: the frozen static baseline).
// Dead battery: linear/step/horizon-ratio all saturate at their "empty"
// rate — maximal willingness to wait for the cheaper source.
#pragma once

#include <memory>
#include <string>

#include "energy/battery.hpp"

namespace flexfetch::energy {

/// One stage-decision query: battery state in, tolerable loss rate out.
/// Implementations must be pure (no internal state mutation) — the same
/// state always yields the same rate, so decisions stay deterministic and
/// estimator replays see what the live decision saw.
class LossRateCurve {
 public:
  virtual ~LossRateCurve() = default;
  virtual double loss_rate(const BatteryState& state) const = 0;
  /// Canonical spec string ("linear@0.05:0.5"): round-trips through
  /// make_loss_curve and labels policy names / JSON records.
  virtual std::string name() const = 0;
};

class ConstantCurve final : public LossRateCurve {
 public:
  explicit ConstantCurve(double rate);
  double loss_rate(const BatteryState& state) const override;
  std::string name() const override;

 private:
  double rate_;
};

class LinearCurve final : public LossRateCurve {
 public:
  LinearCurve(double rate_full, double rate_empty);
  double loss_rate(const BatteryState& state) const override;
  std::string name() const override;

 private:
  double rate_full_;
  double rate_empty_;
};

class StepCurve final : public LossRateCurve {
 public:
  StepCurve(double threshold, double rate_above, double rate_below);
  double loss_rate(const BatteryState& state) const override;
  std::string name() const override;

 private:
  double threshold_;
  double rate_above_;
  double rate_below_;
};

class HorizonRatioCurve final : public LossRateCurve {
 public:
  HorizonRatioCurve(Seconds reference_horizon, double rate_full,
                    double rate_empty);
  double loss_rate(const BatteryState& state) const override;
  std::string name() const override;

 private:
  Seconds reference_horizon_;
  double rate_full_;
  double rate_empty_;
};

/// Default endpoints shared by the parametric curves — the same values
/// the fleet population uses (population.hpp loss_rate_full/empty).
inline constexpr double kDefaultRateFull = 0.05;
inline constexpr double kDefaultRateEmpty = 0.5;
/// Default horizon-ratio reference: 30 simulated minutes.
inline constexpr double kDefaultReferenceHorizonS = 1800.0;

/// Parses a curve spec: "<kind>[@p1[:p2[:p3]]]" with the kinds documented
/// above. A bare "constant" uses `fallback_rate` (the sweep cell's
/// loss_rate knob); every other kind has the defaults listed above.
/// Each parameter is one whole finite decimal number. Throws ConfigError
/// on unknown kinds, malformed, infinite or out-of-range numbers, or
/// out-of-range parameters.
std::unique_ptr<LossRateCurve> make_loss_curve(const std::string& spec,
                                               double fallback_rate = 0.25);

}  // namespace flexfetch::energy
