// run_noisy's thread count: the prefix tree runs on num_threads workers and
// every result is independent of it; the op count stays the sequential
// schedule's, and copy-on-write forks skip copies.
#include <gtest/gtest.h>

#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "common/error.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sched/runner.hpp"
#include "sim/measure.hpp"
#include "transpile/decompose.hpp"

namespace rqsim {
namespace {

NoisyRunConfig make_config(std::size_t trials, std::size_t threads,
                           std::uint64_t seed = 11) {
  NoisyRunConfig config;
  config.num_trials = trials;
  config.num_threads = threads;
  config.seed = seed;
  return config;
}

TEST(Parallel, AllTrialsAccountedFor) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.01, 0.05, 0.02);
  const NoisyRunResult result = run_noisy(c, noise, make_config(4000, 4));
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : result.histogram) {
    (void)outcome;
    total += count;
  }
  EXPECT_EQ(total, 4000u);
  EXPECT_GT(result.ops, 0u);
  EXPECT_LT(result.normalized_computation, 1.0);
}

TEST(Parallel, DeterministicForFixedSeedAndThreads) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.01);
  const NoisyRunResult a = run_noisy(c, noise, make_config(3000, 3));
  const NoisyRunResult b = run_noisy(c, noise, make_config(3000, 3));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.max_live_states, b.max_live_states);
}

TEST(Parallel, DistributionMatchesSerial) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.03);
  const NoisyRunResult serial = run_noisy(c, noise, make_config(30000, 1, 1));
  const NoisyRunResult parallel = run_noisy(c, noise, make_config(30000, 6, 2));
  EXPECT_LT(total_variation_distance(serial.histogram, parallel.histogram), 0.03);
}

TEST(Parallel, MoreThreadsThanTrials) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.0);
  const NoisyRunResult result = run_noisy(c, noise, make_config(3, 16));
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : result.histogram) {
    (void)outcome;
    total += count;
  }
  EXPECT_EQ(total, 3u);
}

TEST(Parallel, RespectsMsvBudget) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.05, 0.2, 0.0);
  NoisyRunConfig config = make_config(4000, 4);
  config.max_states = 3;
  const NoisyRunResult result = run_noisy(c, noise, config);
  EXPECT_LE(result.max_live_states, 3u);
}

TEST(Parallel, ObservablesSupported) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.01, 0.04, 0.0);
  NoisyRunConfig config = make_config(5000, 4, 21);
  config.observables = {PauliString::from_label("ZZI"),
                        PauliString::from_label("IXX")};
  const NoisyRunResult parallel = run_noisy(c, noise, config);
  ASSERT_EQ(parallel.observable_means.size(), 2u);
  // Per-trial values are reduced in trial-index order, so one thread
  // agrees bitwise.
  config.num_threads = 1;
  const NoisyRunResult serial = run_noisy(c, noise, config);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(parallel.observable_means[k], serial.observable_means[k]);
  }
}

TEST(Parallel, RepeatedRunsAreBitwiseIdentical) {
  // Same seed + same thread count must reproduce everything exactly —
  // histograms, observable means, op counts — run after run. The worker
  // Rngs are derived deterministically on the caller thread, so thread
  // scheduling cannot leak into the results.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.015, 0.06, 0.02);
  NoisyRunConfig config = make_config(6000, 4, 1234);
  config.observables = {PauliString::from_label("ZZZZ"),
                        PauliString::from_label("XIIX")};
  const NoisyRunResult first = run_noisy(c, noise, config);
  for (int rep = 0; rep < 3; ++rep) {
    const NoisyRunResult again = run_noisy(c, noise, config);
    EXPECT_EQ(again.histogram, first.histogram);
    EXPECT_EQ(again.ops, first.ops);
    EXPECT_EQ(again.max_live_states, first.max_live_states);
    ASSERT_EQ(again.observable_means.size(), first.observable_means.size());
    for (std::size_t k = 0; k < first.observable_means.size(); ++k) {
      // Bitwise: per-trial values are reduced in trial-index order.
      EXPECT_EQ(again.observable_means[k], first.observable_means[k]);
    }
  }
}

TEST(Parallel, OneThreadMatchesSerialSchedulerBitwise) {
  // One worker executes exactly the sequential schedule: the op count and
  // MSV of the count-only walker (analyze_noisy), and the histogram of the
  // per-trial baseline loop, bit for bit.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.07, 0.03);
  NoisyRunConfig config = make_config(4000, 1, 99);
  config.observables = {PauliString::from_label("ZIZI")};

  const NoisyRunResult tree = run_noisy(c, noise, config);
  const NoisyRunResult counted = analyze_noisy(c, noise, config);
  NoisyRunConfig baseline_config = config;
  baseline_config.mode = ExecutionMode::kBaseline;
  const NoisyRunResult baseline = run_noisy(c, noise, baseline_config);

  EXPECT_EQ(tree.histogram, baseline.histogram);
  EXPECT_EQ(tree.ops, counted.ops);
  EXPECT_EQ(tree.baseline_ops, baseline.ops);
  EXPECT_EQ(tree.max_live_states, counted.max_live_states);
  ASSERT_EQ(tree.observable_means.size(), 1u);
  // The baseline sums in generation order, the tree in reorder order.
  EXPECT_NEAR(tree.observable_means[0], baseline.observable_means[0], 1e-12);
}

TEST(Parallel, TreeMatchesSequentialOpsAndBaselineHistogram) {
  // At 2 and 4 threads the prefix tree performs exactly the sequential
  // schedule's matvec ops (analyze_noisy) — no shared prefix runs twice —
  // and samples the per-trial baseline loop's histogram bit for bit.
  const DeviceModel dev = yorktown_device();
  const BenchmarkEntry entry = make_table1_suite(dev)[11];
  ASSERT_EQ(entry.name, "qv_n5d5");
  NoisyRunConfig config = make_config(512, 1, 7);
  const NoisyRunResult counted = analyze_noisy(entry.compiled, dev.noise, config);
  NoisyRunConfig baseline_config = config;
  baseline_config.mode = ExecutionMode::kBaseline;
  const NoisyRunResult baseline = run_noisy(entry.compiled, dev.noise, baseline_config);
  for (const std::size_t threads : {2u, 4u}) {
    config.num_threads = threads;
    const NoisyRunResult tree = run_noisy(entry.compiled, dev.noise, config);
    EXPECT_EQ(tree.ops, counted.ops) << threads << " threads";
    EXPECT_EQ(tree.histogram, baseline.histogram) << threads << " threads";
  }
}

TEST(Parallel, CowMaterializesFewerCopiesThanForksOnTable1Suite) {
  // Across the Table I suite at 4 threads, at least one schedule fork is
  // served by a refcount bump whose buffer is never copied. If copy-on-write
  // regressed to a copy per fork, the two totals would be equal.
  const DeviceModel dev = yorktown_device();
  std::uint64_t forks = 0;
  std::uint64_t materializations = 0;
  for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
    const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, make_config(512, 4, 7));
    forks += result.fork_copies;
    materializations += result.telemetry.cow_materializations;
  }
  EXPECT_LT(materializations, forks);
}

TEST(Parallel, RejectsSingleStateBudget) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.01, 0.05, 0.0);
  NoisyRunConfig config = make_config(100, 2);
  config.max_states = 1;
  EXPECT_THROW(run_noisy(c, noise, config), Error);
}

TEST(Parallel, RejectsNonCachedModes) {
  // The baseline loop is single-threaded; the unordered ablation is
  // accounting-only at any thread count.
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.01, 0.05, 0.0);
  NoisyRunConfig config = make_config(100, 2);
  config.mode = ExecutionMode::kBaseline;
  EXPECT_THROW(run_noisy(c, noise, config), Error);
  config.mode = ExecutionMode::kCachedUnordered;
  EXPECT_THROW(run_noisy(c, noise, config), Error);
}

}  // namespace
}  // namespace rqsim
