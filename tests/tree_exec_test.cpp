// Work-stealing prefix-tree executor: bitwise equivalence with the baseline
// loop and direct per-trial simulation, zero-redundancy op accounting
// against the sequential schedule, MSV budget enforcement, and the
// tree-plan proof.
#include <gtest/gtest.h>

#include <vector>

#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sched/backend.hpp"
#include "sched/baseline.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

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

// The trial list run_noisy executes for `config`: generated, given
// measurement seeds, reordered.
std::vector<Trial> run_trials(const Circuit& c, const CircuitContext& ctx,
                              const NoiseModel& noise, const NoisyRunConfig& config) {
  Rng rng(config.seed);
  std::vector<Trial> trials = generate_trials(c, ctx.layering, noise, config.num_trials, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  return trials;
}

TEST(TreeExec, BitwiseHistogramsAcrossThreadCountsTable1Suite) {
  // The headline guarantee: for every Table I benchmark, the cached
  // histogram at 1, 2 and 8 threads is bitwise the baseline loop's, and
  // the op count is the sequential schedule's — parallelism is invisible
  // in the results.
  const DeviceModel dev = yorktown_device();
  for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
    NoisyRunConfig baseline_config = make_config(400, 1, 5);
    baseline_config.mode = ExecutionMode::kBaseline;
    const NoisyRunResult baseline = run_noisy(entry.compiled, dev.noise, baseline_config);
    const NoisyRunResult counted =
        analyze_noisy(entry.compiled, dev.noise, make_config(400, 1, 5));
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const NoisyRunResult tree =
          run_noisy(entry.compiled, dev.noise, make_config(400, threads, 5));
      EXPECT_EQ(tree.histogram, baseline.histogram)
          << entry.name << " @ " << threads << " threads";
      EXPECT_EQ(tree.ops, counted.ops) << entry.name << " @ " << threads << " threads";
    }
  }
}

TEST(TreeExec, ZeroRedundancyAtAnyThreadCount) {
  // Total work equals the sequential cached schedule exactly: same
  // matrix-vector op count, same fork copies, at every thread count.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.08, 0.02);
  const CircuitContext ctx(c);
  const std::vector<Trial> trials = run_trials(c, ctx, noise, make_config(5000, 1));
  CountBackend counter(ctx);
  schedule_trials(ctx, TrialSet(trials), counter);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const NoisyRunResult tree = run_noisy(c, noise, make_config(5000, threads));
    EXPECT_EQ(tree.ops, counter.ops()) << threads << " threads";
    EXPECT_EQ(tree.fork_copies, counter.copies()) << threads << " threads";
    EXPECT_EQ(tree.max_live_states, counter.max_live_states()) << threads << " threads";
  }
}

TEST(TreeExec, ObservableMeansBitwiseAcrossThreads) {
  // Reference: each trial simulated from scratch, its expectation values
  // summed in reorder order — the order the tree reduces them in.
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.03);
  NoisyRunConfig config = make_config(4000, 1, 31);
  config.observables = {PauliString::from_label("ZZI"),
                        PauliString::from_label("IXX")};
  const CircuitContext ctx(c);
  std::vector<double> expected(config.observables.size(), 0.0);
  for (const Trial& trial : run_trials(c, ctx, noise, config)) {
    const StateVector state = simulate_trial(ctx, trial);
    for (std::size_t k = 0; k < expected.size(); ++k) {
      expected[k] += expectation(state, config.observables[k]);
    }
  }
  for (double& mean : expected) {
    mean /= static_cast<double>(config.num_trials);
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.num_threads = threads;
    const NoisyRunResult tree = run_noisy(c, noise, config);
    ASSERT_EQ(tree.observable_means.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(tree.observable_means[k], expected[k]) << threads << " threads";
    }
  }
}

TEST(TreeExec, MsvBudgetHoldsUnderConcurrency) {
  // The banker-style reservation keeps the *global* live-state count
  // within the budget for any interleaving: the executor asserts the
  // transient bound internally (RQSIM_CHECK on every acquire) and reports
  // the peak it observed, and the planned MSV is the schedule's sequential
  // peak, <= budget by construction. Results stay bitwise identical to the
  // unbudgeted run's schedule-equivalent (budgets change the schedule, not
  // the physics).
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.05, 0.2, 0.0);
  const NoisyRunResult unbounded = run_noisy(c, noise, make_config(4000, 8));
  for (const std::size_t budget : {2u, 3u, 5u}) {
    NoisyRunConfig config = make_config(4000, 8);
    config.max_states = budget;
    const NoisyRunResult result = run_noisy(c, noise, config);
    EXPECT_LE(result.max_live_states, budget);
    EXPECT_LE(result.telemetry.peak_live_states, budget);
    // Replay lowering trades ops for memory but never changes outcomes.
    EXPECT_EQ(result.histogram, unbounded.histogram) << "budget " << budget;
    EXPECT_GE(result.ops, unbounded.ops);
  }
}

TEST(TreeExec, TreePlanProofCoversSuite) {
  // build_exec_tree's planned counters and linearization must survive the
  // full verifier pass — including the op-for-op comparison against the
  // sequential walker — for realistic trial sets, with and without an MSV
  // budget.
  const DeviceModel dev = yorktown_device();
  const std::vector<BenchmarkEntry> suite = make_table1_suite(dev);
  for (const std::size_t pick : {0u, 6u, 11u}) {
    const Circuit& c = suite[pick].compiled;
    const CircuitContext ctx(c);
    Rng rng(17);
    std::vector<Trial> trials = generate_trials(c, ctx.layering, dev.noise, 2000, rng);
    assign_measurement_seeds(trials, rng);
    reorder_trials(trials);
    for (const std::size_t budget : {std::size_t{0}, std::size_t{3}}) {
      ScheduleOptions options;
      options.max_states = budget;
      const ExecTree tree = build_exec_tree(ctx, trials, options);
      const PlanVerifier verifier(ctx, options);
      const PlanProof proof = verifier.verify_tree_plan(trials, tree);
      ASSERT_TRUE(proof.ok) << suite[pick].name << ": " << proof.diagnostic;
      EXPECT_EQ(tree.planned_ops, proof.cached_ops);
      EXPECT_EQ(tree.planned_ops, predict_cached_ops(ctx, TrialSet(trials), options));
      EXPECT_EQ(tree.planned_forks, proof.forks);
      EXPECT_EQ(tree.peak_demand, proof.max_live_states);
      if (budget != 0) {
        EXPECT_LE(tree.peak_demand, budget);
      }
    }
  }
}

TEST(TreeExec, VerifierRejectsCorruptedTree) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.05, 0.15, 0.0);
  const CircuitContext ctx(c);
  Rng rng(3);
  std::vector<Trial> trials = generate_trials(c, ctx.layering, noise, 500, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  const ScheduleOptions options;
  ExecTree tree = build_exec_tree(ctx, trials, options);
  const PlanVerifier verifier(ctx, options);
  ASSERT_TRUE(verifier.verify_tree_plan(trials, tree).ok);

  // Corrupt the planned op counter: the proof cross-check must catch it.
  ExecTree bad_ops = tree;
  bad_ops.planned_ops += 1;
  EXPECT_FALSE(verifier.verify_tree_plan(trials, bad_ops).ok);

  // Corrupt a replay leaf's trial assignment: the linearized stream now
  // finishes some trial on the wrong error path.
  ExecTree bad_leaf = tree;
  bool corrupted = false;
  for (TreeNode& node : bad_leaf.nodes) {
    if (node.kind == TreeNode::Kind::kReplay && node.end < trials.size() &&
        !(trials[node.begin].events == trials[node.end].events)) {
      node.begin += 1;
      node.end += 1;
      node.tail_begin += 1;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(verifier.verify_tree_plan(trials, bad_leaf).ok);
  EXPECT_THROW(
      verify_tree_plan_or_throw(ctx, TrialSet(trials), bad_leaf, options, "tree_exec_test"),
      Error);
}

TEST(TreeExec, VerifierRejectsOverBudgetMaterialization) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.05, 0.15, 0.0);
  const CircuitContext ctx(c);
  Rng rng(5);
  std::vector<Trial> trials = generate_trials(c, ctx.layering, noise, 500, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  // Built unbudgeted, the tree's checkpoint stack runs deeper than two.
  const ScheduleOptions unbounded;
  const ExecTree tree = build_exec_tree(ctx, trials, unbounded);
  ASSERT_GT(tree.peak_demand, 2u);
  ASSERT_TRUE(PlanVerifier(ctx, unbounded).verify_tree_plan(trials, tree).ok);

  // Adversarial fixture: the same tree presented against a 2-state MSV
  // budget. Every fork in the linearization is written immediately after
  // it is pushed, so the materialized count tracks the stack depth and
  // the proof must reject at the materializing op — forks being free
  // under CoW must not let an over-budget schedule through.
  ScheduleOptions tight;
  tight.max_states = 2;
  const PlanProof proof = PlanVerifier(ctx, tight).verify_tree_plan(trials, tree);
  EXPECT_FALSE(proof.ok);
  EXPECT_NE(proof.diagnostic.find("materialize"), std::string::npos)
      << proof.diagnostic;
}

TEST(TreeExec, ExecutorStatsMatchPlannedCounters) {
  // The executor's runtime counters must land exactly on the tree's
  // planned (and verified) values: every op executed once, every branch
  // forked once.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.03, 0.1, 0.01);
  const CircuitContext ctx(c);
  Rng rng(23);
  std::vector<Trial> trials = generate_trials(c, ctx.layering, noise, 3000, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  const ScheduleOptions options;
  const ExecTree tree = build_exec_tree(ctx, trials, options);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    TreeExecConfig config;
    config.num_threads = threads;
    SampledTrialSink sink(ctx, trials, nullptr);
    const TreeExecStats stats = execute_tree(ctx, tree, trials, config, sink);
    EXPECT_EQ(stats.ops, tree.planned_ops) << threads << " threads";
    EXPECT_EQ(stats.fork_copies, tree.planned_forks) << threads << " threads";
    std::uint64_t total = 0;
    for (const auto& [outcome, count] : sink.take_histogram()) {
      (void)outcome;
      total += count;
    }
    EXPECT_EQ(total, trials.size());
  }
}

TEST(TreeExec, EmptyAndTinyTrialSets) {
  const Circuit c = decompose_to_cx_basis(make_qft(3));
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.08, 0.0);
  for (const std::size_t trials : {0u, 1u, 2u}) {
    NoisyRunConfig baseline_config = make_config(trials, 1);
    baseline_config.mode = ExecutionMode::kBaseline;
    const NoisyRunResult baseline = run_noisy(c, noise, baseline_config);
    const NoisyRunResult counted = analyze_noisy(c, noise, make_config(trials, 1));
    for (const std::size_t threads : {1u, 8u}) {
      const NoisyRunResult tree = run_noisy(c, noise, make_config(trials, threads));
      EXPECT_EQ(tree.histogram, baseline.histogram);
      EXPECT_EQ(tree.ops, counted.ops);
    }
  }
}

}  // namespace
}  // namespace rqsim
