// Deterministic pseudo-random number generation.
//
// Every stochastic component in rqsim (trial generation, measurement
// sampling, random circuit construction) takes an explicit Rng so that
// experiments are reproducible bit-for-bit from a seed. The generator is
// xoshiro256++ seeded through SplitMix64, implemented here so the library
// has no dependence on the (implementation-defined) std distributions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace rqsim {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ generator with convenience sampling methods.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Raw 64 random bits. (The hot sampling calls are defined inline below:
  /// trial generation draws several per trial.)
  std::uint64_t next_u64();

  /// Satisfy UniformRandomBitGenerator so Rng works with std algorithms.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) — n must be > 0. Uses Lemire rejection.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Sample an index from unnormalized non-negative weights.
  std::size_t discrete(const std::vector<double>& weights);

  /// Standard normal via Box-Muller (used by random-unitary generation).
  double normal();

  /// Derive an independent child generator (for parallel streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

inline std::uint64_t Rng::next_u64() {
  const auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

inline double Rng::uniform() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline bool Rng::bernoulli(double p) {
  RQSIM_CHECK(p >= 0.0 && p <= 1.0, "bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

}  // namespace rqsim
