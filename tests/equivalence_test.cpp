// The paper's central claim (Section IV.B): the reordered, prefix-cached
// simulation is *mathematically equivalent* to the baseline Monte Carlo
// simulation. These tests prove it on this implementation:
//
//  1. Bitwise: for every trial, the final statevector produced by the
//     prefix-tree executor, at one and at four threads, is bit-for-bit
//     identical to simulating that trial from scratch (both paths apply the
//     identical operator sequence in the identical order, so even
//     floating-point rounding agrees).
//  2. Statistical: outcome histograms of baseline vs cached runs over the
//     same trial set are close in total-variation distance.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "bench_circuits/grover.hpp"
#include "bench_circuits/qft.hpp"
#include "bench_circuits/qv.hpp"
#include "common/rng.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "recording_sink.hpp"
#include "sched/baseline.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "transpile/decompose.hpp"
#include "transpile/transpiler.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

// Every trial's tree-executed final state, at one and at four threads,
// equals direct simulation bit for bit.
void expect_tree_matches_direct(const CircuitContext& ctx, const std::vector<Trial>& trials) {
  for (const std::size_t threads : {1u, 4u}) {
    const RecordedRun cached = run_recorded(ctx, trials, threads);
    ASSERT_EQ(cached.final_states.size(), trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      EXPECT_TRUE(cached.final_states[i].bitwise_equal(simulate_trial(ctx, trials[i])))
          << "trial " << i << " with " << trials[i].num_errors() << " errors at "
          << threads << " threads";
    }
  }
}

// Histogram and op count of the prefix tree over reordered `trials`.
std::pair<OutcomeHistogram, opcount_t> run_cached(const CircuitContext& ctx,
                                                  const std::vector<Trial>& trials) {
  const ExecTree tree = build_exec_tree(ctx, trials);
  SampledTrialSink sink(ctx, trials, nullptr);
  const TreeExecStats stats = execute_tree(ctx, tree, trials, TreeExecConfig{}, sink);
  return {sink.take_histogram(), stats.ops};
}

struct EquivCase {
  const char* name;
  unsigned qubits;
  double single_rate;
  double two_rate;
  std::size_t trials;
  std::uint64_t seed;
};

class BitwiseEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(BitwiseEquivalence, CachedFinalStatesMatchDirectSimulationExactly) {
  const EquivCase param = GetParam();
  const Circuit c = decompose_to_cx_basis(make_qft(param.qubits));
  const CircuitContext ctx(c);
  const NoiseModel noise =
      NoiseModel::uniform(param.qubits, param.single_rate, param.two_rate, 0.05);
  Rng rng(param.seed);
  auto trials = generate_trials(c, ctx.layering, noise, param.trials, rng);
  reorder_trials(trials);
  expect_tree_matches_direct(ctx, trials);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitwiseEquivalence,
    ::testing::Values(EquivCase{"low_noise", 3, 0.005, 0.03, 200, 11},
                      EquivCase{"mid_noise", 4, 0.02, 0.10, 200, 12},
                      EquivCase{"high_noise", 4, 0.10, 0.40, 150, 13},
                      EquivCase{"extreme_noise", 3, 0.25, 0.60, 100, 14},
                      EquivCase{"five_qubits", 5, 0.01, 0.05, 250, 15}),
    [](const ::testing::TestParamInfo<EquivCase>& info) { return info.param.name; });

TEST(BitwiseEquivalenceExtra, GroverCompiledOntoYorktown) {
  const DeviceModel dev = yorktown_device();
  const TranspileResult compiled = transpile(make_grover3(5), dev.coupling);
  const CircuitContext ctx(compiled.circuit);
  Rng rng(21);
  auto trials = generate_trials(compiled.circuit, ctx.layering, dev.noise, 300, rng);
  reorder_trials(trials);
  expect_tree_matches_direct(ctx, trials);
}

TEST(BitwiseEquivalenceExtra, QvCircuit) {
  const Circuit c = decompose_to_cx_basis(make_qv(5, 4, /*seed=*/3));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(5, 0.01, 0.08, 0.02);
  Rng rng(22);
  auto trials = generate_trials(c, ctx.layering, noise, 200, rng);
  reorder_trials(trials);
  expect_tree_matches_direct(ctx, trials);
}

TEST(StatisticalEquivalence, HistogramsAgreeInDistribution) {
  // Baseline and cached runs on the *same* trial set, given independent
  // measurement seeds, so histograms differ, but the total-variation
  // distance must be small for a large number of trials.
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.03);
  Rng rng(31);
  auto trials = generate_trials(c, ctx.layering, noise, 20000, rng);

  Rng base_rng(41);
  assign_measurement_seeds(trials, base_rng);
  const SvRunResult base = baseline_simulate(ctx, TrialSet(trials));

  Rng cached_rng(43);
  assign_measurement_seeds(trials, cached_rng);
  reorder_trials(trials);
  const auto [cached_histogram, cached_ops] = run_cached(ctx, trials);

  EXPECT_LT(total_variation_distance(base.histogram, cached_histogram), 0.03);
  // The cached run must do strictly less work here.
  EXPECT_LT(cached_ops, base.ops);
}

TEST(StatisticalEquivalence, MeasurementErrorFlipsPropagate) {
  // With a 100% measurement flip rate on every qubit and no gate noise, a
  // noiseless-deterministic circuit must output the complement, in both
  // execution modes.
  Circuit c(2);
  c.x(0);
  c.measure_all();  // ideal outcome 0b01 -> flipped to 0b10
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(2, 0.0, 0.0, 1.0);
  Rng rng(51);
  auto trials = generate_trials(c, ctx.layering, noise, 50, rng);
  assign_measurement_seeds(trials, rng);

  const SvRunResult base = baseline_simulate(ctx, TrialSet(trials));
  ASSERT_EQ(base.histogram.size(), 1u);
  EXPECT_EQ(base.histogram.begin()->first, 0b10u);

  reorder_trials(trials);
  const OutcomeHistogram cached = run_cached(ctx, trials).first;
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached.begin()->first, 0b10u);
}

TEST(StatisticalEquivalence, NoiselessRunIsDeterministic) {
  // Zero noise: all trials identical and error-free; cached execution runs
  // the circuit exactly once and every sample hits the ideal output.
  Circuit c(3);
  c.x(0);
  c.x(2);
  c.measure_all();
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(3, 0.0, 0.0, 0.0);
  Rng rng(61);
  auto trials = generate_trials(c, ctx.layering, noise, 500, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  const auto [histogram, ops] = run_cached(ctx, trials);
  EXPECT_EQ(ops, ctx.total_gate_ops());
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram.begin()->first, 0b101u);
  EXPECT_EQ(histogram.begin()->second, 500u);
}

}  // namespace
}  // namespace rqsim
