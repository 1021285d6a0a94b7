#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace flexfetch {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.5, 7.5);
    EXPECT_GE(u, 2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(19);
  std::map<std::uint64_t, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 5)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 6.0, 0.01) << "value " << v;
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, NormalClampedStaysInRange) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal_clamped(0.0, 5.0, -1.0, 1.0);
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.zipf(100, 1.2);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(47);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.zipf(1000, 1.2) <= 10) ++low;
  }
  // With s=1.2 the top-10 ranks should dominate well beyond uniform (1%).
  EXPECT_GT(low, n / 4);
}

TEST(Rng, ZipfDegenerateN1) {
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.zipf(1, 1.5), 1u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(59);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(61);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(67);
  Rng b = a.fork();
  // The fork and the parent should not generate the same next values.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

// Golden pins for the centralized seed derivation (common/rng.hpp
// seeds::). These literals are load-bearing: every fleet population,
// fault schedule, and scenario seed flows through these functions, so a
// change here re-rolls every fleet artifact. Update them only with a
// deliberate, documented re-roll.
TEST(Seeds, DeriveStreamGoldenValues) {
  static_assert(seeds::derive_stream(1, 2) == 0x8662547e20f327b6ULL);
  EXPECT_EQ(seeds::derive_stream(1, seeds::kFleetUserDomain, 0),
            0x8abe8b67e645f2d2ULL);
  EXPECT_EQ(seeds::derive_stream(1, seeds::kFleetUserDomain, 1),
            0x928c588336a51cb5ULL);
  EXPECT_EQ(seeds::derive_stream(1, seeds::kFleetFaultDomain, 7),
            0x23d12f59a1eab54aULL);
  EXPECT_EQ(seeds::derive_stream(1, seeds::kFleetScenarioDomain, 3),
            0x0d2d50ed6327c1a1ULL);
  EXPECT_EQ(seeds::derive_stream(2, seeds::kFleetUserDomain, 0),
            0x11395858cfd38ab8ULL);
}

TEST(Seeds, StreamsAreDistinctAcrossIndexAndDomain) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    seen.insert(seeds::derive_stream(1, seeds::kFleetUserDomain, k));
    seen.insert(seeds::derive_stream(1, seeds::kFleetFaultDomain, k));
  }
  EXPECT_EQ(seen.size(), 2000u);  // No collisions in practical ranges.
}

// The legacy helpers are FROZEN arithmetic: they exist to give the
// historical ad-hoc seed expressions one named home, and they must keep
// producing the exact values the pre-fleet artifacts were generated
// with. If one of these fails, every golden digest and
// bench/paper_tables.txt is stale.
TEST(Seeds, LegacyHelpersAreFrozen) {
  static_assert(seeds::profile_run(1) == 2);
  static_assert(seeds::eval_run(1) == 3);
  static_assert(seeds::profile_run(5) == 10);
  static_assert(seeds::eval_run(5) == 11);
  static_assert(seeds::domain(42, 0x67726570ULL) == (42ULL ^ 0x67726570ULL));
  EXPECT_EQ(seeds::domain(7, 0x6d616b65ULL), 7ULL ^ 0x6d616b65ULL);
}

}  // namespace
}  // namespace flexfetch
