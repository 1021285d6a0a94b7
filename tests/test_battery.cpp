// Battery model + loss-rate curve family (ROADMAP item 2).
//
// Property tests pinned by ISSUE: fraction/horizon monotonicity, the
// dead-battery boundary, EWMA convergence on a constant-power trace,
// wall-power semantics, spec parsing round-trips, and the regression
// tests for the BatteryParams clamp-drift fix (validate-not-clamp).
#include "energy/battery.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "energy/loss_curve.hpp"

namespace flexfetch::energy {
namespace {

// ---------------------------------------------------------------------------
// BatteryParams::validate — the clamp-drift regression surface.

TEST(BatteryParams, ValidateAcceptsBoundaries) {
  BatteryParams p;
  p.initial_fraction = 0.0;
  EXPECT_NO_THROW(p.validate());
  p.initial_fraction = 1.0;
  EXPECT_NO_THROW(p.validate());
  p.base_drain = Watts{0.0};
  EXPECT_NO_THROW(p.validate());
}

TEST(BatteryParams, ValidateRejectsOutOfRangeFraction) {
  BatteryParams p;
  p.initial_fraction = -0.01;
  EXPECT_THROW(p.validate(), ConfigError);
  p.initial_fraction = 1.01;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(BatteryParams, ValidateRejectsBadCapacityAndDrain) {
  BatteryParams p;
  p.capacity = Joules{0.0};
  EXPECT_THROW(p.validate(), ConfigError);
  p.capacity = Joules{-5.0};
  EXPECT_THROW(p.validate(), ConfigError);
  p = BatteryParams{};
  p.base_drain = Watts{-1.0};
  EXPECT_THROW(p.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// fraction_at / horizon properties.

TEST(BatteryParams, FractionMonotoneNonIncreasingInTime) {
  BatteryParams p;
  p.capacity = Joules{1000.0};
  p.base_drain = Watts{5.0};
  double prev = p.fraction_at(Seconds{0.0}, Joules{0.0});
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (double t = 0.0; t <= 400.0; t += 7.5) {
    const double f = p.fraction_at(Seconds{t}, Joules{0.0});
    EXPECT_LE(f, prev) << "t=" << t;
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // Past exhaustion the clamp holds it at zero, never below.
  EXPECT_DOUBLE_EQ(p.fraction_at(Seconds{1e6}, Joules{0.0}), 0.0);
}

TEST(BatteryParams, FractionMonotoneNonIncreasingInDeviceEnergy) {
  BatteryParams p;
  p.capacity = Joules{1000.0};
  p.base_drain = Watts{0.0};
  double prev = 1.0;
  for (double e = 0.0; e <= 2000.0; e += 50.0) {
    const double f = p.fraction_at(Seconds{10.0}, Joules{e});
    EXPECT_LE(f, prev) << "device_energy=" << e;
    prev = f;
  }
  EXPECT_DOUBLE_EQ(prev, 0.0);  // 2x capacity spent: clamped to empty.
}

TEST(BatteryParams, RemainingMatchesFractionTimesCapacity) {
  BatteryParams p;
  p.capacity = Joules{500.0};
  p.base_drain = Watts{1.0};
  const Seconds t{100.0};
  const Joules dev{150.0};
  EXPECT_DOUBLE_EQ(p.remaining_at(t, dev).value(),
                   p.fraction_at(t, dev) * p.capacity.value());
}

TEST(BatteryParams, WallPowerNeverDrains) {
  BatteryParams p;
  p.initial_fraction = 0.6;
  p.on_wall_power = true;
  EXPECT_DOUBLE_EQ(p.drained_at(Seconds{1e6}, Joules{1e9}).value(), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_at(Seconds{1e6}, Joules{1e9}), 0.6);
}

// ---------------------------------------------------------------------------
// BatteryTracker: EWMA estimation and the energy horizon.

TEST(BatteryTracker, SeededWithBaseDrainBeforeObservations) {
  BatteryParams p;
  p.base_drain = Watts{7.0};
  BatteryTracker tr(p);
  EXPECT_DOUBLE_EQ(tr.drain_estimate().value(), 7.0);
  EXPECT_DOUBLE_EQ(tr.fraction(), 1.0);
}

TEST(BatteryTracker, RejectsInvalidParams) {
  BatteryParams p;
  p.initial_fraction = 2.0;
  EXPECT_THROW(BatteryTracker{p}, ConfigError);
  EXPECT_THROW(BatteryTracker(BatteryParams{}, Seconds{0.0}), ConfigError);
  EXPECT_THROW(
      BatteryTracker(BatteryParams{}, Seconds{30.0}, Seconds{-1.0}),
      ConfigError);
}

TEST(BatteryTracker, DueMatchesObserveAcceptTest) {
  // The first sample, one ulp before the next is due, and exactly
  // min_sample_interval after the first: due() answers what observe()
  // then does, for an exact and an inexact interval.
  for (const double interval : {1.0, 0.1}) {
    for (const double first : {2.5, 1.3}) {
      BatteryTracker t(BatteryParams{}, Seconds{30.0}, Seconds{interval});
      const double exact = first + interval;
      const double times[] = {first, std::nextafter(exact, 0.0), exact};
      const bool accepted[] = {true, false, exact - first >= interval};
      for (std::size_t i = 0; i < 3; ++i) {
        const Seconds when{times[i]};
        const bool due = t.due(when);
        EXPECT_EQ(due, accepted[i]) << "interval " << interval << ", t " << times[i];
        EXPECT_EQ(t.observe(when, Joules{static_cast<double>(i)}), due)
            << "interval " << interval << ", t " << times[i];
      }
    }
  }
}

TEST(BatteryTracker, EwmaConvergesOnConstantPowerTrace) {
  BatteryParams p;
  p.capacity = Joules{1e6};
  p.base_drain = Watts{10.0};
  BatteryTracker tr(p, /*tau=*/Seconds{30.0},
                    /*min_sample_interval=*/Seconds{1.0});
  // Devices add a constant 5 W on top of the 10 W base: after many time
  // constants the estimate must converge to 15 W.
  for (double t = 2.0; t <= 600.0; t += 2.0) {
    EXPECT_TRUE(tr.observe(Seconds{t}, Joules{5.0 * t}));
  }
  EXPECT_NEAR(tr.drain_estimate().value(), 15.0, 1e-3);
}

TEST(BatteryTracker, EwmaInvariantToSamplingGrain) {
  // The same trajectory sampled at 2 s and at 10 s must land on (nearly)
  // the same estimate: the alpha = 1 - exp(-dt/tau) weight integrates the
  // window, it does not count samples.
  BatteryParams p;
  p.capacity = Joules{1e6};
  p.base_drain = Watts{10.0};
  BatteryTracker fine(p), coarse(p);
  for (double t = 2.0; t <= 300.0; t += 2.0) {
    fine.observe(Seconds{t}, Joules{5.0 * t});
  }
  for (double t = 10.0; t <= 300.0; t += 10.0) {
    coarse.observe(Seconds{t}, Joules{5.0 * t});
  }
  EXPECT_NEAR(fine.drain_estimate().value(), coarse.drain_estimate().value(),
              0.05);
}

TEST(BatteryTracker, SubsamplingSkipsCloseObservations) {
  BatteryParams p;
  BatteryTracker tr(p, Seconds{30.0}, /*min_sample_interval=*/Seconds{1.0});
  EXPECT_FALSE(tr.observe(Seconds{0.5}, Joules{0.0}));   // Too close.
  EXPECT_TRUE(tr.observe(Seconds{1.0}, Joules{0.0}));    // Exactly at bound.
  EXPECT_FALSE(tr.observe(Seconds{1.5}, Joules{0.0}));
  EXPECT_TRUE(tr.observe(Seconds{2.5}, Joules{0.0}));
}

TEST(BatteryTracker, HorizonMonotoneNonIncreasingOnConstantDrain) {
  BatteryParams p;
  p.capacity = Joules{10000.0};
  p.base_drain = Watts{10.0};
  BatteryTracker tr(p);
  double prev = tr.horizon().value();
  for (double t = 5.0; t <= 500.0; t += 5.0) {
    tr.observe(Seconds{t}, Joules{0.0});
    const double h = tr.horizon().value();
    EXPECT_LE(h, prev + 1e-9) << "t=" << t;
    prev = h;
  }
}

TEST(BatteryTracker, DeadBatteryBoundary) {
  BatteryParams p;
  p.capacity = Joules{100.0};
  p.base_drain = Watts{10.0};
  BatteryTracker tr(p);
  tr.observe(Seconds{20.0}, Joules{0.0});  // 200 J demanded of a 100 J pack.
  EXPECT_DOUBLE_EQ(tr.fraction(), 0.0);
  EXPECT_DOUBLE_EQ(tr.horizon().value(), 0.0);
  const BatteryState s = tr.state();
  EXPECT_TRUE(s.dead());
  // Every adaptive curve saturates at its empty rate on a dead battery.
  EXPECT_DOUBLE_EQ(LinearCurve(0.05, 0.5).loss_rate(s), 0.5);
  EXPECT_DOUBLE_EQ(StepCurve(0.2, 0.05, 0.5).loss_rate(s), 0.5);
  EXPECT_DOUBLE_EQ(HorizonRatioCurve(Seconds{1800.0}, 0.05, 0.5).loss_rate(s),
                   0.5);
}

TEST(BatteryTracker, WallPowerState) {
  BatteryParams p;
  p.initial_fraction = 0.3;
  p.on_wall_power = true;
  BatteryTracker tr(p);
  tr.observe(Seconds{100.0}, Joules{5000.0});
  EXPECT_DOUBLE_EQ(tr.fraction(), 0.3);
  EXPECT_TRUE(std::isinf(tr.horizon().value()));
  const BatteryState s = tr.state();
  EXPECT_FALSE(s.dead());
  // Adaptive curves treat plugged-in energy as free...
  EXPECT_DOUBLE_EQ(LinearCurve(0.05, 0.5).loss_rate(s), 0.0);
  EXPECT_DOUBLE_EQ(StepCurve(0.2, 0.05, 0.5).loss_rate(s), 0.0);
  EXPECT_DOUBLE_EQ(HorizonRatioCurve(Seconds{1800.0}, 0.05, 0.5).loss_rate(s),
                   0.0);
  // ...but the constant curve is state-blind by contract (frozen baseline).
  EXPECT_DOUBLE_EQ(ConstantCurve(0.25).loss_rate(s), 0.25);
}

// ---------------------------------------------------------------------------
// Loss-rate curves.

BatteryState at_fraction(double f) {
  return BatteryState{.fraction = f};
}

TEST(LossCurve, LinearMatchesFleetInterpolation) {
  // The fleet's PopulationGenerator::loss_rate_for delegates to this
  // curve; its historical arithmetic is frozen. Checked bit-for-bit.
  const double full = 0.05, empty = 0.5;
  const LinearCurve curve(full, empty);
  for (double level = 0.0; level <= 1.0; level += 0.083) {
    const double drain = 1.0 - level;
    const double expected = full + (empty - full) * drain;
    EXPECT_EQ(curve.loss_rate(at_fraction(level)), expected) << level;
  }
}

TEST(LossCurve, LinearEndpoints) {
  const LinearCurve curve(0.05, 0.5);
  EXPECT_DOUBLE_EQ(curve.loss_rate(at_fraction(1.0)), 0.05);
  EXPECT_DOUBLE_EQ(curve.loss_rate(at_fraction(0.0)), 0.5);
}

TEST(LossCurve, StepSwitchesAtThreshold) {
  const StepCurve curve(0.2, 0.1, 0.4);
  EXPECT_DOUBLE_EQ(curve.loss_rate(at_fraction(0.21)), 0.1);
  EXPECT_DOUBLE_EQ(curve.loss_rate(at_fraction(0.2)), 0.4);  // At: below.
  EXPECT_DOUBLE_EQ(curve.loss_rate(at_fraction(0.0)), 0.4);
}

TEST(LossCurve, HorizonRatioSweepsFullToEmpty) {
  const HorizonRatioCurve curve(Seconds{1800.0}, 0.05, 0.5);
  BatteryState s;
  s.fraction = 0.5;
  s.horizon = Seconds{1800.0};  // At the reference: halfway.
  EXPECT_DOUBLE_EQ(curve.loss_rate(s), 0.05 + (0.5 - 0.05) * 0.5);
  s.horizon = Seconds{1e12};  // Effectively unbounded: near rate_full.
  EXPECT_NEAR(curve.loss_rate(s), 0.05, 1e-6);
  s.horizon = Seconds{0.0};  // Dead: saturates at rate_empty.
  EXPECT_DOUBLE_EQ(curve.loss_rate(s), 0.5);
}

TEST(LossCurve, HorizonRatioMonotoneInHorizon) {
  const HorizonRatioCurve curve(Seconds{1800.0}, 0.05, 0.5);
  BatteryState s;
  double prev = std::numeric_limits<double>::infinity();
  for (double h = 0.0; h <= 7200.0; h += 120.0) {
    s.horizon = Seconds{h};
    const double r = curve.loss_rate(s);
    EXPECT_LE(r, prev);
    prev = r;
  }
}

TEST(LossCurve, ConstructorValidation) {
  EXPECT_THROW(ConstantCurve{-0.1}, ConfigError);
  EXPECT_THROW(LinearCurve(-0.1, 0.5), ConfigError);
  EXPECT_THROW(StepCurve(1.5, 0.1, 0.4), ConfigError);
  EXPECT_THROW(HorizonRatioCurve(Seconds{0.0}, 0.05, 0.5), ConfigError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ConstantCurve{inf}, ConfigError);
  EXPECT_THROW(LinearCurve(inf, 0.5), ConfigError);
  EXPECT_THROW(LinearCurve(0.05, inf), ConfigError);
  EXPECT_THROW(StepCurve(inf, 0.1, 0.4), ConfigError);
  EXPECT_THROW(StepCurve(0.2, inf, 0.4), ConfigError);
  EXPECT_THROW(StepCurve(0.2, 0.1, inf), ConfigError);
  EXPECT_THROW(HorizonRatioCurve(Seconds{inf}, 0.05, 0.5), ConfigError);
  EXPECT_THROW(HorizonRatioCurve(Seconds{1800.0}, inf, 0.5), ConfigError);
  EXPECT_THROW(HorizonRatioCurve(Seconds{1800.0}, 0.05, inf), ConfigError);
}

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(LossCurveSpec, RoundTripsCanonicalNames) {
  for (const char* spec :
       {"constant@0.25", "linear@0.05:0.5", "step@0.2:0.25:0.5",
        "horizon-ratio@1800:0.05:0.5"}) {
    EXPECT_EQ(make_loss_curve(spec)->name(), spec) << spec;
  }
}

TEST(LossCurveSpec, BareKindsUseDefaults) {
  EXPECT_EQ(make_loss_curve("constant", 0.1)->name(), "constant@0.1");
  EXPECT_EQ(make_loss_curve("linear")->name(), "linear@0.05:0.5");
  EXPECT_EQ(make_loss_curve("step", 0.25)->name(), "step@0.2:0.25:0.5");
  EXPECT_EQ(make_loss_curve("horizon-ratio")->name(),
            "horizon-ratio@1800:0.05:0.5");
  EXPECT_EQ(make_loss_curve("horizon-ratio@900")->name(),
            "horizon-ratio@900:0.05:0.5");
}

TEST(LossCurveSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(make_loss_curve("parabolic"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@a"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@0.1:0.2"), ConfigError);
  EXPECT_THROW(make_loss_curve("linear@0.1"), ConfigError);
  EXPECT_THROW(make_loss_curve("step@0.2:0.1"), ConfigError);
  EXPECT_THROW(make_loss_curve("horizon-ratio@1800:0.05"), ConfigError);
  EXPECT_THROW(make_loss_curve("linear@"), ConfigError);
  EXPECT_THROW(make_loss_curve(""), ConfigError);
  // Each parameter is one whole finite number in double's range: no
  // infinities, overflow, underflow to zero, whitespace or hex.
  EXPECT_THROW(make_loss_curve("linear@inf:0.5"), ConfigError);
  EXPECT_THROW(make_loss_curve("linear@1e999:0.5"), ConfigError);
  EXPECT_THROW(make_loss_curve("horizon-ratio@inf:0.05:0.5"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@nan"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@ 0.25"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@0x1p-2"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@1e-400"), ConfigError);
  EXPECT_THROW(make_loss_curve("constant@+0.25"), ConfigError);
  EXPECT_THROW(make_loss_curve("linear@0.05:"), ConfigError);
}

}  // namespace
}  // namespace flexfetch::energy
