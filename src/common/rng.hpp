// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (workload generators, layout
// jitter) draws from an explicitly seeded Rng so that whole simulations are
// bit-reproducible. We implement xoshiro256** seeded via SplitMix64 rather
// than relying on std::mt19937 so that streams are stable across standard
// library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/error.hpp"

namespace flexfetch {

/// SplitMix64: used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna; fast, high-quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    FF_ASSERT(lo <= hi);
    const std::uint64_t range = hi - lo + 1;
    if (range == 0) return (*this)();  // full 64-bit range
    // Lemire's unbiased bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto l = static_cast<std::uint64_t>(m);
    if (l < range) {
      const std::uint64_t t = (0 - range) % range;
      while (l < t) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * range;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponential with mean `mean` (> 0).
  double exponential(double mean) {
    FF_ASSERT(mean > 0.0);
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (one value per call; simple > fast here).
  double normal(double mu = 0.0, double sigma = 1.0) {
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * std::numbers::pi * u2);
    return mu + sigma * z;
  }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  /// Truncated normal clamped to [lo, hi] by resampling (max 64 tries,
  /// then clamps — keeps the generator total).
  double normal_clamped(double mu, double sigma, double lo, double hi) {
    FF_ASSERT(lo <= hi);
    for (int i = 0; i < 64; ++i) {
      const double x = normal(mu, sigma);
      if (x >= lo && x <= hi) return x;
    }
    const double x = normal(mu, sigma);
    return x < lo ? lo : (x > hi ? hi : x);
  }

  /// Zipf-distributed rank in [1, n] with exponent `s` (rejection sampling).
  std::uint64_t zipf(std::uint64_t n, double s) {
    FF_ASSERT(n >= 1);
    // Rejection-inversion (Hörmann) is overkill for simulation sizes; use
    // the classic rejection method with the integrable bounding function.
    const double b = std::pow(2.0, s - 1.0);
    while (true) {
      const double u = uniform();
      const double v = uniform();
      const auto x = static_cast<std::uint64_t>(
          std::floor(std::pow(static_cast<double>(n) + 1.0, u)));
      if (x < 1 || x > n) continue;
      const double t = std::pow(1.0 + 1.0 / static_cast<double>(x), s - 1.0);
      if (v * static_cast<double>(x) * (t - 1.0) / (b - 1.0) <= t / b) {
        return x;
      }
    }
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-component determinism).
  Rng fork() { return Rng((*this)() ^ 0xa5a5a5a5deadbeefULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Centralized seed derivation. Every place that turns one seed into
/// several independent streams goes through this namespace, so the
/// repo-wide seeding discipline is one screenful of code instead of
/// scattered arithmetic. Two families live here:
///
///  * derive_stream — the SplitMix64-based hierarchical splitter. One
///    master seed fans out into any number of child streams keyed by a
///    64-bit stream id (a domain tag, a user index, a shard number...),
///    and children split again: derive_stream(derive_stream(m, a), b).
///    Any consumer can regenerate stream (a, b) without touching the
///    streams between — the property the fleet population generator
///    needs so worker shard k can rebuild exactly its users.
///
///  * The frozen legacy mappings the paper scenarios were generated
///    with (profile_run/eval_run/domain). These are pinned by golden
///    tests: changing them would silently regenerate every trace and
///    invalidate every recorded figure and golden digest.
namespace seeds {

/// Domain tags for derive_stream hierarchies (arbitrary but fixed).
inline constexpr std::uint64_t kFleetUserDomain = 0x666c757372ULL;   // "flusr"
inline constexpr std::uint64_t kFleetFaultDomain = 0x666c666cULL;    // "flfl"
inline constexpr std::uint64_t kFleetScenarioDomain = 0x666c7363ULL; // "flsc"

/// SplitMix64-based stream splitter: mixes the master through one
/// SplitMix64 step, perturbs with the (golden-ratio-spread) stream id,
/// and mixes again. Bijective in `master` for fixed `stream`; avalanche
/// in both arguments; constexpr so goldens can be static_asserted.
constexpr std::uint64_t derive_stream(std::uint64_t master,
                                      std::uint64_t stream) {
  SplitMix64 outer(master);
  SplitMix64 inner(outer.next() ^
                   (stream + 0x9e3779b97f4a7c15ULL) * 0xd1342543de82ef95ULL);
  return inner.next();
}

/// Two-level convenience: stream `index` within `domain` under `master`.
constexpr std::uint64_t derive_stream(std::uint64_t master,
                                      std::uint64_t domain,
                                      std::uint64_t index) {
  return derive_stream(derive_stream(master, domain), index);
}

/// Legacy scenario-run split (frozen): the profiling run of scenario
/// seed s replays run 2s, the evaluation run 2s+1 — different think
/// times, same file structure.
constexpr std::uint64_t profile_run(std::uint64_t scenario_seed) {
  return scenario_seed * 2;
}
constexpr std::uint64_t eval_run(std::uint64_t scenario_seed) {
  return scenario_seed * 2 + 1;
}

/// Legacy per-generator domain separation (frozen): each workload
/// generator XORs its ASCII tag into both of its seeds so "grep run 3"
/// and "make run 3" draw from unrelated streams.
constexpr std::uint64_t domain(std::uint64_t seed, std::uint64_t tag) {
  return seed ^ tag;
}

}  // namespace seeds

}  // namespace flexfetch
