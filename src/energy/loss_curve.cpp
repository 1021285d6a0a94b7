#include "energy/loss_curve.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace flexfetch::energy {

namespace {

/// Shortest %g rendering that round-trips the values we use (rates and
/// horizons are human-entered, not accumulated) — keeps curve names
/// stable and readable ("linear@0.05:0.5").
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

void require_rate(double r, const char* what) {
  FF_REQUIRE(std::isfinite(r) && r >= 0.0,
             std::string("loss curve: ") + what + " must be finite and >= 0");
}

}  // namespace

ConstantCurve::ConstantCurve(double rate) : rate_(rate) {
  require_rate(rate_, "constant rate");
}

double ConstantCurve::loss_rate(const BatteryState& /*state*/) const {
  // Deliberately state-blind, wall power included: this is the paper's
  // fixed rate, the one every plain "flexfetch" policy samples.
  return rate_;
}

std::string ConstantCurve::name() const { return "constant@" + num(rate_); }

LinearCurve::LinearCurve(double rate_full, double rate_empty)
    : rate_full_(rate_full), rate_empty_(rate_empty) {
  require_rate(rate_full_, "full-battery rate");
  require_rate(rate_empty_, "empty-battery rate");
}

double LinearCurve::loss_rate(const BatteryState& state) const {
  if (state.on_wall_power) return 0.0;
  // Frozen arithmetic: bit-identical to the fleet's historical
  // PopulationGenerator::loss_rate_for interpolation (which delegates
  // here — golden users in tests/test_fleet.cpp pin it).
  const double drain = 1.0 - state.fraction;
  return rate_full_ + (rate_empty_ - rate_full_) * drain;
}

std::string LinearCurve::name() const {
  return "linear@" + num(rate_full_) + ":" + num(rate_empty_);
}

StepCurve::StepCurve(double threshold, double rate_above, double rate_below)
    : threshold_(threshold), rate_above_(rate_above), rate_below_(rate_below) {
  FF_REQUIRE(threshold_ >= 0.0 && threshold_ <= 1.0,
             "loss curve: step threshold must be in [0, 1]");
  require_rate(rate_above_, "above-threshold rate");
  require_rate(rate_below_, "below-threshold rate");
}

double StepCurve::loss_rate(const BatteryState& state) const {
  if (state.on_wall_power) return 0.0;
  return state.fraction > threshold_ ? rate_above_ : rate_below_;
}

std::string StepCurve::name() const {
  return "step@" + num(threshold_) + ":" + num(rate_above_) + ":" +
         num(rate_below_);
}

HorizonRatioCurve::HorizonRatioCurve(Seconds reference_horizon,
                                     double rate_full, double rate_empty)
    : reference_horizon_(reference_horizon),
      rate_full_(rate_full),
      rate_empty_(rate_empty) {
  FF_REQUIRE(std::isfinite(reference_horizon_.value()) &&
                 reference_horizon_ > Seconds{},
             "loss curve: reference horizon must be finite and positive");
  require_rate(rate_full_, "full-battery rate");
  require_rate(rate_empty_, "empty-battery rate");
}

double HorizonRatioCurve::loss_rate(const BatteryState& state) const {
  if (state.on_wall_power) return 0.0;  // Horizon is unbounded anyway.
  if (state.horizon <= Seconds{}) return rate_empty_;  // Dead: saturate.
  // H / (H + horizon) sweeps 1 -> 0 as the horizon grows past the
  // reference, so the rate sweeps rate_empty -> rate_full.
  const double urgency =
      reference_horizon_.value() /
      (reference_horizon_.value() + state.horizon.value());
  return rate_full_ + (rate_empty_ - rate_full_) * urgency;
}

std::string HorizonRatioCurve::name() const {
  return "horizon-ratio@" + num(reference_horizon_.value()) + ":" +
         num(rate_full_) + ":" + num(rate_empty_);
}

namespace {

/// Splits "p1:p2:p3" into doubles. Each token must be one whole, finite
/// number in double's range as std::from_chars reads it (no whitespace,
/// '+', hex or underflow to zero); throws ConfigError otherwise.
std::vector<double> parse_params(std::string_view text,
                                 const std::string& spec) {
  std::vector<double> out;
  while (true) {
    const std::size_t colon = text.find(':');
    const std::string_view tok = text.substr(0, colon);
    double v = 0.0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    FF_REQUIRE(ec == std::errc{} && end == tok.data() + tok.size() &&
                   std::isfinite(v),
               "loss curve: bad parameter '" + std::string(tok) + "' in '" +
                   spec + "'");
    out.push_back(v);
    if (colon == std::string_view::npos) return out;
    text.remove_prefix(colon + 1);
  }
}

void require_arity(const std::vector<double>& p,
                   std::initializer_list<std::size_t> allowed,
                   const std::string& spec) {
  for (std::size_t n : allowed) {
    if (p.size() == n) return;
  }
  throw ConfigError("loss curve: wrong parameter count in '" + spec + "'");
}

}  // namespace

std::unique_ptr<LossRateCurve> make_loss_curve(const std::string& spec,
                                               double fallback_rate) {
  const std::size_t at = spec.find('@');
  const std::string kind = spec.substr(0, at);
  std::vector<double> p;
  if (at != std::string::npos) {
    p = parse_params(std::string_view(spec).substr(at + 1), spec);
  }

  if (kind == "constant") {
    require_arity(p, {0, 1}, spec);
    return std::make_unique<ConstantCurve>(p.empty() ? fallback_rate : p[0]);
  }
  if (kind == "linear") {
    require_arity(p, {0, 2}, spec);
    return p.empty() ? std::make_unique<LinearCurve>(kDefaultRateFull,
                                                     kDefaultRateEmpty)
                     : std::make_unique<LinearCurve>(p[0], p[1]);
  }
  if (kind == "step") {
    require_arity(p, {0, 3}, spec);
    return p.empty()
               ? std::make_unique<StepCurve>(0.2, fallback_rate,
                                             kDefaultRateEmpty)
               : std::make_unique<StepCurve>(p[0], p[1], p[2]);
  }
  if (kind == "horizon-ratio") {
    require_arity(p, {0, 1, 3}, spec);
    const Seconds href =
        Seconds{p.empty() ? kDefaultReferenceHorizonS : p[0]};
    return p.size() == 3
               ? std::make_unique<HorizonRatioCurve>(href, p[1], p[2])
               : std::make_unique<HorizonRatioCurve>(href, kDefaultRateFull,
                                                     kDefaultRateEmpty);
  }
  throw ConfigError("unknown loss curve '" + kind + "' (want constant, " +
                    "linear, step, or horizon-ratio)");
}

}  // namespace flexfetch::energy
