// Idle/decay noise: errors injected at layer boundaries without an
// attached gate (paper Section III.B.1, "could appear at any place across
// the quantum circuit"). Exercises the virtual-position event encoding
// through every execution path.
#include <gtest/gtest.h>

#include "bench_circuits/qft.hpp"
#include "circuit/layering.hpp"
#include "common/rng.hpp"
#include "dm/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "recording_sink.hpp"
#include "sched/backend.hpp"
#include "sched/baseline.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

TEST(IdleNoise, ModelConfiguration) {
  NoiseModel noise = NoiseModel::uniform(3, 0.0, 0.0, 0.0);
  EXPECT_FALSE(noise.has_idle_noise());
  EXPECT_DOUBLE_EQ(noise.idle_pauli_rate(1), 0.0);
  noise.set_idle_rate(1, 0.02);
  EXPECT_TRUE(noise.has_idle_noise());
  EXPECT_DOUBLE_EQ(noise.idle_pauli_rate(1), 0.02);
  EXPECT_DOUBLE_EQ(noise.idle_pauli_rate(0), 0.0);
  noise.set_uniform_idle_rate(0.01);
  EXPECT_DOUBLE_EQ(noise.idle_pauli_rate(0), 0.01);
  EXPECT_FALSE(noise.is_noiseless());
  const NoiseModel half = noise.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.idle_pauli_rate(2), 0.005);
}

TEST(IdleNoise, PositionEncodingRoundTrip) {
  const std::size_t num_gates = 17;
  for (qubit_t q = 0; q < 8; ++q) {
    const gate_index_t pos = idle_position(num_gates, q);
    EXPECT_TRUE(is_idle_position(num_gates, pos));
    EXPECT_EQ(idle_qubit(num_gates, pos), q);
  }
  EXPECT_FALSE(is_idle_position(num_gates, 16));
}

TEST(IdleNoise, GeneratorEmitsIdleEvents) {
  Circuit c(2);
  c.h(0);
  c.h(1);
  c.cx(0, 1);
  c.measure_all();
  const Layering l = layer_circuit(c);
  NoiseModel noise = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
  noise.set_uniform_idle_rate(0.25);
  Rng rng(5);
  const std::size_t n = 40000;
  const auto trials = generate_trials(c, l, noise, n, rng);
  // 2 layers x 2 qubits x 0.25 = 1 expected idle error per trial.
  std::size_t total = 0;
  for (const Trial& t : trials) {
    total += t.events.size();
    for (const ErrorEvent& e : t.events) {
      EXPECT_TRUE(is_idle_position(c.num_gates(), e.position));
      EXPECT_LT(idle_qubit(c.num_gates(), e.position), 2u);
      EXPECT_LT(e.layer, l.num_layers());
      EXPECT_GE(e.op, 1);
      EXPECT_LE(e.op, 3);
    }
  }
  EXPECT_NEAR(static_cast<double>(total) / static_cast<double>(n), 1.0, 0.03);
}

TEST(IdleNoise, SlowAndFastGeneratorsAgreeInDistribution) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  const Layering l = layer_circuit(c);
  NoiseModel noise = NoiseModel::uniform(3, 0.05, 0.1, 0.0);
  noise.set_idle_rate(0, 0.08);
  noise.set_idle_rate(2, 0.15);

  const std::size_t n = 60000;
  Rng rng_slow(9);
  std::size_t slow_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    slow_total += generate_trial(c, l, noise, rng_slow).events.size();
  }
  Rng rng_fast(10);
  std::size_t fast_total = 0;
  for (const Trial& t : generate_trials(c, l, noise, n, rng_fast)) {
    fast_total += t.events.size();
  }
  const double slow_mean = static_cast<double>(slow_total) / static_cast<double>(n);
  const double fast_mean = static_cast<double>(fast_total) / static_cast<double>(n);
  EXPECT_NEAR(slow_mean, fast_mean, 0.02);
}

TEST(IdleNoise, BitwiseEquivalenceWithIdleEvents) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(c);
  NoiseModel noise = NoiseModel::uniform(4, 0.01, 0.05, 0.02);
  noise.set_uniform_idle_rate(0.01);
  Rng rng(21);
  auto trials = generate_trials(c, ctx.layering, noise, 300, rng);
  reorder_trials(trials);

  for (const std::size_t threads : {1u, 4u}) {
    const RecordedRun cached = run_recorded(ctx, trials, threads);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      EXPECT_TRUE(cached.final_states[i].bitwise_equal(simulate_trial(ctx, trials[i])))
          << "trial " << i << " at " << threads << " threads";
    }
  }
}

TEST(IdleNoise, TraceEquivalenceWithIdleEvents) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const CircuitContext ctx(c);
  NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.05, 0.0);
  noise.set_uniform_idle_rate(0.03);
  Rng rng(22);
  auto trials = generate_trials(c, ctx.layering, noise, 200, rng);
  reorder_trials(trials);
  TraceBackend backend(ctx, trials.size());
  schedule_trials(ctx, TrialSet(trials), backend);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto expected = expected_trace(ctx, trials[i]);
    ASSERT_EQ(backend.traces()[i].size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(backend.traces()[i][k] == expected[k]);
    }
  }
}

TEST(IdleNoise, MonteCarloMatchesExactChannel) {
  // End-to-end: idle-noise Monte Carlo converges to the density-matrix
  // evolution with per-layer idle depolarizing channels.
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.h(1);
  c.measure_all();
  NoiseModel noise = NoiseModel::uniform(2, 0.01, 0.04, 0.02);
  noise.set_idle_rate(0, 0.05);
  noise.set_idle_rate(1, 0.02);

  const std::vector<double> exact = exact_noisy_distribution(c, noise);
  NoisyRunConfig config;
  config.num_trials = 200000;
  config.seed = 3;
  const NoisyRunResult mc = run_noisy(c, noise, config);

  double tvd = 0.0;
  for (std::uint64_t outcome = 0; outcome < exact.size(); ++outcome) {
    const auto it = mc.histogram.find(outcome);
    const double sampled =
        it == mc.histogram.end()
            ? 0.0
            : static_cast<double>(it->second) / static_cast<double>(config.num_trials);
    tvd += std::abs(sampled - exact[outcome]);
  }
  EXPECT_LT(tvd / 2.0, 0.01);
}

TEST(IdleNoise, IdleErrorsReduceSavings) {
  // Idle noise adds error positions, reducing shared prefixes — normalized
  // computation must not improve when idle noise is switched on.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  NoiseModel quiet = NoiseModel::uniform(4, 0.005, 0.02, 0.0);
  NoiseModel noisy = quiet;
  noisy.set_uniform_idle_rate(0.02);

  NoisyRunConfig config;
  config.num_trials = 2000;
  config.seed = 4;
  const NoisyRunResult without = analyze_noisy(c, quiet, config);
  const NoisyRunResult with_idle = analyze_noisy(c, noisy, config);
  EXPECT_GT(with_idle.normalized_computation, without.normalized_computation);
}

}  // namespace
}  // namespace rqsim
