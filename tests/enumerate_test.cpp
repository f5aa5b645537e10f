#include <gtest/gtest.h>

#include <cmath>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/qft.hpp"
#include "common/error.hpp"
#include "dm/density_matrix.hpp"
#include "sched/enumerate.hpp"
#include "sched/order.hpp"
#include "transpile/decompose.hpp"

namespace rqsim {
namespace {

TEST(Enumerate, ConfigurationCountsAndMass) {
  // 3 single-qubit gates, rate p each: k<=1 gives 1 + 3*3 = 10 configs
  // with mass (1-p)^3 + 3 * p (1-p)^2.
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  c.measure_all();
  const double p = 0.1;
  const NoiseModel noise = NoiseModel::uniform(3, p, 0.0, 0.0);
  const WeightedTrialSet set = enumerate_error_configurations(c, noise, 1);
  EXPECT_EQ(set.trials.size(), 10u);
  const double expected_mass =
      std::pow(1 - p, 3) + 3.0 * p * std::pow(1 - p, 2);
  EXPECT_NEAR(set.covered_mass, expected_mass, 1e-12);
  EXPECT_TRUE(is_reordered(TrialSet(set.trials)));
  // Probabilities positive and consistent with trials.
  ASSERT_EQ(set.probabilities.size(), set.trials.size());
  for (std::size_t i = 0; i < set.trials.size(); ++i) {
    EXPECT_GT(set.probabilities[i], 0.0);
    EXPECT_LE(set.trials[i].num_errors(), 1u);
  }
}

TEST(Enumerate, TwoQubitGatesUseFifteenOps) {
  Circuit c(2);
  c.cx(0, 1);
  c.measure_all();
  const NoiseModel noise = NoiseModel::uniform(2, 0.0, 0.2, 0.0);
  const WeightedTrialSet set = enumerate_error_configurations(c, noise, 1);
  EXPECT_EQ(set.trials.size(), 16u);  // empty + 15 Pauli pairs
  EXPECT_NEAR(set.covered_mass, 1.0, 1e-12);  // k=1 covers everything here
}

TEST(Enumerate, MassConvergesToOneWithK) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.01, 0.05, 0.0);
  double previous = 0.0;
  for (std::size_t k : {0u, 1u, 2u}) {
    const WeightedTrialSet set = enumerate_error_configurations(c, noise, k);
    EXPECT_GT(set.covered_mass, previous);
    previous = set.covered_mass;
  }
  EXPECT_GT(previous, 0.98);
}

TEST(Enumerate, ConfigLimitEnforced) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.01, 0.05, 0.0);
  EXPECT_THROW(enumerate_error_configurations(c, noise, 3, /*max_configs=*/100), Error);
}

TEST(Enumerate, TruncatedDistributionIsComponentwiseLowerBound) {
  // Every component of the truncated distribution under-counts the exact
  // one by the (non-negative) tail contribution, and the total deficit is
  // exactly 1 - covered_mass.
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.06, 0.03);
  const std::vector<double> exact = exact_noisy_distribution(c, noise);
  const TruncatedDistribution truncated = truncated_exact_distribution(c, noise, 2);

  double deficit = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_LE(truncated.probabilities[i], exact[i] + 1e-9) << i;
    deficit += exact[i] - truncated.probabilities[i];
  }
  EXPECT_NEAR(deficit, 1.0 - truncated.covered_mass, 1e-9);
  EXPECT_GT(truncated.covered_mass, 0.95);
}

TEST(Enumerate, NormalizedTruncationConvergesToExact) {
  const Circuit c = make_ghz(3);
  NoiseModel noise = NoiseModel::uniform(3, 0.03, 0.08, 0.02);
  noise.set_uniform_idle_rate(0.01);
  const std::vector<double> exact = exact_noisy_distribution(c, noise);
  double previous_tvd = 1.0;
  for (std::size_t k : {0u, 1u, 2u}) {
    const TruncatedDistribution t = truncated_exact_distribution(c, noise, k);
    double tvd = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      tvd += std::abs(t.probabilities[i] / t.covered_mass - exact[i]);
    }
    tvd /= 2.0;
    EXPECT_LE(tvd, 1.0 - t.covered_mass + 1e-9) << "k=" << k;
    EXPECT_LE(tvd, previous_tvd + 1e-12);
    previous_tvd = tvd;
  }
  EXPECT_LT(previous_tvd, 0.01);
}

TEST(Enumerate, ZeroErrorTruncationIsScaledIdealDistribution) {
  Circuit c(2);
  c.x(0);
  c.measure_all();
  const NoiseModel noise = NoiseModel::uniform(2, 0.1, 0.0, 0.0);
  const TruncatedDistribution t = truncated_exact_distribution(c, noise, 0);
  // One config (error-free): distribution = mass * delta_{01}.
  EXPECT_EQ(t.num_configurations, 1u);
  EXPECT_NEAR(t.probabilities[0b01], t.covered_mass, 1e-12);
  EXPECT_NEAR(t.probabilities[0b00], 0.0, 1e-12);
}

TEST(Enumerate, SharingBeatsUnsharedExecutionDramatically) {
  // The enumerated configurations are the *ideal* sharing workload: all
  // single-error configs share the full prefix before their site.
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.01, 0.05, 0.0);
  const TruncatedDistribution t = truncated_exact_distribution(c, noise, 2);
  EXPECT_LT(static_cast<double>(t.ops),
            0.35 * static_cast<double>(t.baseline_ops));
  EXPECT_GT(t.num_configurations, 1000u);
  EXPECT_LT(t.max_live_states, 8u);
}

}  // namespace
}  // namespace rqsim
