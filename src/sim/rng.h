// Deterministic pseudo-random numbers (xoshiro256**).
//
// Every stochastic component (preemption, task-time jitter, synthetic event
// generation) owns its own Rng seeded from a run seed plus a component tag,
// so adding randomness to one component never perturbs another.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/hash.h"

namespace hepvine::sim {

class Rng {
 public:
  Rng() : Rng(0xdeadbeefcafef00dULL) {}

  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Derive a seed from a run seed and a component tag.
  Rng(std::uint64_t run_seed, std::string_view tag)
      : Rng(util::hash_combine(run_seed, util::hash_bytes(tag))) {}

  void reseed(std::uint64_t seed) {
    // Expand the seed through splitmix64 per the xoshiro authors' advice.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      word = util::mix64(x);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return uniform_from(uniform(), lo, hi);
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_below(std::uint64_t n) noexcept {
    // Rejection-free multiply-shift; bias is negligible for n << 2^64.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean.
  double exponential(double mean) noexcept {
    return exponential_from(uniform(), mean);
  }

  /// Normal via Box-Muller (one value per call; simple and deterministic).
  double normal(double mean, double stddev) noexcept {
    const double u1 = uniform();
    const double u2 = uniform();
    return normal_from(u1, u2, mean, stddev);
  }

  // Pure transforms of raw uniform() draws. The drawing members above are
  // these applied to fresh draws, so a caller that takes the draws itself
  // (to fix their order, or to defer the transform until its value is
  // needed) gets bit-identical results.

  /// uniform(lo, hi) from the uniform() draw `u`.
  static double uniform_from(double u, double lo, double hi) noexcept {
    return lo + (hi - lo) * u;
  }

  /// exponential(mean) from the uniform() draw `u`.
  static double exponential_from(double u, double mean) noexcept {
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// normal(mean, stddev) from its two uniform() draws, in draw order.
  static double normal_from(double u1, double u2, double mean,
                            double stddev) noexcept {
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(6.283185307179586 * u2);
  }

  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Raw generator state, in xoshiro word order.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

}  // namespace hepvine::sim
