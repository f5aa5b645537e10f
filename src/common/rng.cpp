#include "common/rng.hpp"

#include <cmath>

#include "common/types.hpp"

namespace rqsim {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
  // xoshiro state must not be all zero; SplitMix64 never yields four zero
  // outputs in a row, but guard anyway for safety.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

double Rng::uniform(double lo, double hi) {
  RQSIM_CHECK(lo <= hi, "uniform(lo, hi): lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  RQSIM_CHECK(n > 0, "uniform_int: n must be positive");
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0ULL - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  RQSIM_CHECK(!weights.empty(), "discrete: weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    RQSIM_CHECK(w >= 0.0, "discrete: weights must be non-negative");
    total += w;
  }
  RQSIM_CHECK(total > 0.0, "discrete: total weight must be positive");
  double r = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (r < weights[i]) {
      return i;
    }
    r -= weights[i];
  }
  return weights.size() - 1;
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform.
  double u1 = uniform();
  while (u1 <= 0.0) {
    u1 = uniform();
  }
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * kPi * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace rqsim
