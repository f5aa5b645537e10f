// Schedule-invariant verification: the PlanVerifier must accept every
// schedule the real scheduler produces (with op counts telescoping exactly
// against CountBackend and the independent model) and reject every
// corrupted fixture with a diagnostic naming the first violating trial.
// Also covers the entry-point run-limit guards (satellite of the same PR).
#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "sched/backend.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "sched/tree.hpp"
#include "service/service.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {
namespace {

struct Workload {
  Circuit circuit;
  CircuitContext ctx;
  std::vector<Trial> trials;

  Workload(unsigned qubits, double rate, std::size_t n, std::uint64_t seed)
      : Workload(decompose_to_cx_basis(make_qft(qubits)),
                 NoiseModel::uniform(qubits, rate, rate * 4, 0.02), n, seed) {}

  Workload(Circuit c, const NoiseModel& noise, std::size_t n, std::uint64_t seed)
      : circuit(std::move(c)), ctx(circuit) {
    Rng rng(seed);
    trials = generate_trials(circuit, ctx.layering, noise, n, rng);
    reorder_trials(trials);
  }
};

std::vector<PlanOp> record_plan(const CircuitContext& ctx,
                                const std::vector<Trial>& trials,
                                const ScheduleOptions& options = {}) {
  PlanRecorder recorder;
  schedule_trials(ctx, TrialSet(trials), recorder, options);
  return recorder.take_plan();
}

// ---------------------------------------------------------------------------
// Acceptance: every real schedule proves clean, op counts telescope exactly.

TEST(PlanVerifier, AcceptsBenchSuiteSchedulesExactly) {
  const DeviceModel dev = yorktown_device();
  for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
    const CircuitContext ctx(entry.compiled);
    Rng rng(7);
    std::vector<Trial> trials =
        generate_trials(entry.compiled, ctx.layering, dev.noise, 600, rng);
    reorder_trials(trials);
    for (const std::size_t cap : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      ScheduleOptions options;
      options.max_states = cap;
      const PlanVerifier verifier(ctx, options);
      const PlanProof proof = verifier.verify_schedule(TrialSet(trials));
      ASSERT_TRUE(proof.ok) << entry.name << " cap=" << cap << ": "
                            << proof.diagnostic;
      // The proof's op count, the independent model, and the execution
      // backend must agree exactly — the telescoping acceptance criterion.
      CountBackend backend(ctx);
      schedule_trials(ctx, TrialSet(trials), backend, options);
      EXPECT_EQ(proof.cached_ops, backend.ops()) << entry.name << " cap=" << cap;
      EXPECT_EQ(proof.predicted_ops, backend.ops()) << entry.name << " cap=" << cap;
      EXPECT_EQ(proof.max_live_states, backend.max_live_states())
          << entry.name << " cap=" << cap;
      EXPECT_LE(proof.cached_ops, proof.baseline_ops) << entry.name;
      EXPECT_EQ(proof.num_trials, trials.size());
    }
  }
}

TEST(PlanVerifier, AcceptsMergedBatchStyleTrialLists) {
  // run_noisy_batch merges per-job reordered lists into one reorder order;
  // the merged list must prove clean like any single-run list.
  Workload a(4, 0.05, 1500, 1);
  Workload b(4, 0.05, 1000, 2);
  std::vector<Trial> merged = a.trials;
  merged.insert(merged.end(), b.trials.begin(), b.trials.end());
  reorder_trials(merged);
  const PlanVerifier verifier(a.ctx);
  const PlanProof proof = verifier.verify_schedule(TrialSet(merged));
  ASSERT_TRUE(proof.ok) << proof.diagnostic;
  EXPECT_EQ(proof.num_trials, a.trials.size() + b.trials.size());
  EXPECT_EQ(proof.cached_ops, proof.predicted_ops);
}

TEST(PlanVerifier, ExecuteBatchVerifiesMergedSchedule) {
  // Two compatible jobs with verify_plans set: the service's merged run
  // (run_noisy_batch) must verify the *merged* trial list before executing
  // it, and still complete both jobs.
  SimService service({.num_workers = 0});
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t seed : {1u, 2u}) {
    JobSpec spec;
    spec.circuit = decompose_to_cx_basis(make_qft(4));
    spec.noise = NoiseModel::uniform(4, 0.05, 0.2, 0.02);
    spec.config.num_trials = 400;
    spec.config.seed = seed;
    spec.config.verify_plans = true;
    const SubmitOutcome outcome = service.try_submit(std::move(spec));
    ASSERT_EQ(outcome.status, SubmitStatus::kAccepted);
    ids.push_back(outcome.job_id);
  }
  EXPECT_EQ(service.run_pending(), 2u);
  for (const std::uint64_t id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_EQ(result.batch_size, 2u);
  }
}

TEST(PlanVerifier, ProofArtifactsRoundTrip) {
  Workload w(4, 0.05, 800, 3);
  const PlanVerifier verifier(w.ctx);
  const PlanProof proof = verifier.verify_schedule(TrialSet(w.trials));
  ASSERT_TRUE(proof.ok);
  EXPECT_GT(proof.forks, 0u);
  EXPECT_EQ(proof.forks, proof.drops);  // stack discipline: every fork dropped
  EXPECT_NE(proof.msv_witness_op, kNoIndex);
  const std::string text = format_proof(proof);
  EXPECT_NE(text.find("plan proof: OK"), std::string::npos);
  EXPECT_NE(text.find("cached ops"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Adversarial fixtures: each corruption is rejected with a diagnostic
// naming the first violating trial index.

TEST(PlanVerifier, RejectsSwappedTrialPair) {
  Workload w(4, 0.05, 500, 4);
  // Find an adjacent strictly-ordered pair and swap it.
  std::size_t i = 0;
  while (i + 1 < w.trials.size() &&
         !trial_order_less(w.trials[i], w.trials[i + 1])) {
    ++i;
  }
  ASSERT_LT(i + 1, w.trials.size());
  std::swap(w.trials[i], w.trials[i + 1]);
  const PlanVerifier verifier(w.ctx);
  const PlanProof proof = verifier.verify_schedule(TrialSet(w.trials));
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_trial, i + 1);
  EXPECT_NE(proof.diagnostic.find("out of reorder order"), std::string::npos)
      << proof.diagnostic;
  EXPECT_NE(proof.diagnostic.find(std::to_string(i + 1)), std::string::npos);
}

TEST(PlanVerifier, RejectsDroppedThenReusedCheckpoint) {
  Workload w(4, 0.05, 500, 5);
  std::vector<PlanOp> plan = record_plan(w.ctx, w.trials);
  // Find a drop of a non-root checkpoint, then target that depth again.
  const auto drop_it = std::find_if(plan.begin(), plan.end(), [](const PlanOp& op) {
    return op.kind == PlanOpKind::kDrop && op.depth >= 1;
  });
  ASSERT_NE(drop_it, plan.end());
  PlanOp reuse;
  reuse.kind = PlanOpKind::kError;
  reuse.depth = drop_it->depth;
  const auto inserted = static_cast<std::size_t>(drop_it - plan.begin()) + 1;
  plan.insert(drop_it + 1, reuse);
  const PlanVerifier verifier(w.ctx);
  const PlanProof proof = verifier.verify(TrialSet(w.trials), plan);
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_op, inserted);
  EXPECT_NE(proof.diagnostic.find("use after drop"), std::string::npos)
      << proof.diagnostic;
  // The diagnostic pins the first trial the corruption would poison.
  EXPECT_NE(proof.violating_trial, kNoIndex);
}

TEST(PlanVerifier, RejectsMsvBudgetExceededByOne) {
  Workload w(4, 0.08, 2000, 6);
  const PlanProof unlimited = PlanVerifier(w.ctx).verify_schedule(TrialSet(w.trials));
  ASSERT_TRUE(unlimited.ok) << unlimited.diagnostic;
  ASSERT_GE(unlimited.max_live_states, 3u);  // budget below must stay >= 2
  // In every sequential schedule a fork's next op writes the child, so the
  // materialized peak equals the live peak and its witness is the write
  // that realizes the deepest fork.
  ASSERT_EQ(unlimited.max_materialized_states, unlimited.max_live_states);
  // Same plan, budget one below the witness depth: the adversarial
  // over-budget fixture — the witness write's materialization must fail.
  ScheduleOptions tight;
  tight.max_states = unlimited.max_live_states - 1;
  const std::vector<PlanOp> plan = record_plan(w.ctx, w.trials);
  const PlanProof proof = PlanVerifier(w.ctx, tight).verify(TrialSet(w.trials), plan);
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_op, unlimited.materialization_witness_op);
  EXPECT_NE(proof.diagnostic.find("exceeding the MSV budget"), std::string::npos)
      << proof.diagnostic;
  EXPECT_NE(proof.violating_trial, kNoIndex);
}

TEST(PlanVerifier, AcceptsUnmaterializedForksBeyondBudget) {
  // The CoW relaxation: a fork that is never written occupies no memory,
  // so a plan may hold more live checkpoint *handles* than the MSV budget
  // as long as the materialized count stays within it. Three zero-error
  // trials finish on CoW forks of the fully-advanced root — three live
  // handles at the peak, one materialized buffer throughout.
  const Circuit circuit = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(circuit);
  const auto total = static_cast<layer_index_t>(ctx.num_layers());
  std::vector<Trial> trials(3);
  std::vector<PlanOp> plan;
  const auto push = [&plan](PlanOpKind kind, std::uint32_t depth,
                            trial_index_t trial = 0) {
    PlanOp op;
    op.kind = kind;
    op.depth = depth;
    op.trial = trial;
    plan.push_back(op);
  };
  push(PlanOpKind::kAdvance, 0);
  plan.back().from = 0;
  plan.back().to = total;
  push(PlanOpKind::kFinish, 0, 0);
  push(PlanOpKind::kFork, 0);
  push(PlanOpKind::kFinish, 1, 1);
  push(PlanOpKind::kFork, 1);
  push(PlanOpKind::kFinish, 2, 2);
  push(PlanOpKind::kDrop, 2);
  push(PlanOpKind::kDrop, 1);
  ScheduleOptions budget;
  budget.max_states = 2;
  const PlanProof proof = PlanVerifier(ctx, budget).verify(TrialSet(trials), plan);
  ASSERT_TRUE(proof.ok) << proof.diagnostic;
  EXPECT_EQ(proof.max_live_states, 3u);
  EXPECT_EQ(proof.max_materialized_states, 1u);
  EXPECT_EQ(proof.materializations, 1u);
}

TEST(PlanVerifier, RejectsDeadBranchInsertion) {
  Workload w(4, 0.05, 500, 7);
  std::vector<PlanOp> plan = record_plan(w.ctx, w.trials);
  // Insert a wasteful fork+drop (a branch that finishes nothing) before an
  // existing fork — the shape an off-by-one op-count attribution bug takes.
  const auto fork_it = std::find_if(plan.begin(), plan.end(), [](const PlanOp& op) {
    return op.kind == PlanOpKind::kFork;
  });
  ASSERT_NE(fork_it, plan.end());
  PlanOp fork;
  fork.kind = PlanOpKind::kFork;
  fork.depth = fork_it->depth;
  PlanOp drop;
  drop.kind = PlanOpKind::kDrop;
  drop.depth = fork_it->depth + 1;
  const auto at = static_cast<std::size_t>(fork_it - plan.begin());
  plan.insert(fork_it, {fork, drop});
  const PlanProof proof = PlanVerifier(w.ctx).verify(TrialSet(w.trials), plan);
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_op, at + 1);
  EXPECT_NE(proof.diagnostic.find("without finishing any trial"), std::string::npos)
      << proof.diagnostic;
  EXPECT_NE(proof.violating_trial, kNoIndex);
}

TEST(PlanVerifier, RejectsOpCountTelescopingMismatch) {
  // A plan recorded under a tight budget replays trials individually, so
  // its op count exceeds the unlimited-budget model: verifying it against
  // the wrong options must trip the telescoping check (the pure op-count
  // diagnostic, reached once the structural checks all pass).
  Workload w(4, 0.08, 2000, 8);
  ScheduleOptions tight;
  tight.max_states = 2;
  const std::vector<PlanOp> plan = record_plan(w.ctx, w.trials, tight);
  const PlanProof proof = PlanVerifier(w.ctx).verify(TrialSet(w.trials), plan);
  ASSERT_FALSE(proof.ok);
  EXPECT_NE(proof.diagnostic.find("op-count telescoping violated"),
            std::string::npos)
      << proof.diagnostic;
  EXPECT_NE(proof.diagnostic.find("+"), std::string::npos);  // plan over-executes
}

TEST(PlanVerifier, RejectsUnfinishedTrialAndLeakedCheckpoint) {
  Workload w(4, 0.05, 300, 9);
  std::vector<PlanOp> plan = record_plan(w.ctx, w.trials);
  // Drop the last finish: its trial is never covered.
  const auto last_finish =
      std::find_if(plan.rbegin(), plan.rend(), [](const PlanOp& op) {
        return op.kind == PlanOpKind::kFinish;
      });
  ASSERT_NE(last_finish, plan.rend());
  const auto victim = static_cast<std::size_t>(last_finish->trial);
  plan.erase(std::next(last_finish).base());
  const PlanProof proof = PlanVerifier(w.ctx).verify(TrialSet(w.trials), plan);
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_trial, victim);
  EXPECT_NE(proof.diagnostic.find("never finished"), std::string::npos)
      << proof.diagnostic;

  // Truncating right after the first fork leaks that checkpoint (the
  // stack-balance check precedes the coverage check).
  std::vector<PlanOp> leaked = record_plan(w.ctx, w.trials);
  const auto first_fork =
      std::find_if(leaked.begin(), leaked.end(), [](const PlanOp& op) {
        return op.kind == PlanOpKind::kFork;
      });
  ASSERT_NE(first_fork, leaked.end());
  leaked.erase(first_fork + 1, leaked.end());
  const PlanProof leak_proof = PlanVerifier(w.ctx).verify(TrialSet(w.trials), leaked);
  ASSERT_FALSE(leak_proof.ok);
  EXPECT_NE(leak_proof.diagnostic.find("leaks"), std::string::npos)
      << leak_proof.diagnostic;
}

TEST(PlanVerifier, ThrowingWrapperNamesCallerAndDiagnostic) {
  Workload w(4, 0.05, 200, 10);
  std::swap(w.trials.front(), w.trials.back());
  if (is_reordered(TrialSet(w.trials))) {
    GTEST_SKIP() << "degenerate trial set";
  }
  try {
    verify_schedule_or_throw(w.ctx, TrialSet(w.trials), {}, "test-context");
    FAIL() << "expected rqsim::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test-context"), std::string::npos) << what;
    EXPECT_NE(what.find("schedule verification failed"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Malformed flat trees: verify_tree_plan checks every range a node holds
// before any pass reads through it, and names the node.

/// A proved tree over `w`'s trials, built with `options`.
ExecTree proved_tree(const Workload& w, const ScheduleOptions& options) {
  const ExecTree tree = build_exec_tree(w.ctx, TrialSet(w.trials), options);
  EXPECT_TRUE(PlanVerifier(w.ctx, options).verify_tree_plan(TrialSet(w.trials), tree).ok);
  return tree;
}

/// verify_tree_plan's diagnostic for `tree`, which must be rejected.
std::string rejection(const Workload& w, const ScheduleOptions& options,
                      const ExecTree& tree) {
  const PlanProof proof = PlanVerifier(w.ctx, options).verify_tree_plan(TrialSet(w.trials), tree);
  EXPECT_FALSE(proof.ok);
  return proof.diagnostic;
}

TEST(PlanVerifier, RejectsSubtreeEndOutsideItsRange) {
  const Workload w(3, 0.05, 500, 3);
  const ExecTree tree = proved_tree(w, {});
  // A branch child of the root, with children of its own.
  std::size_t ni = 1;
  while (ni < tree.nodes.size() && tree.nodes[ni].subtree_end == ni + 1) {
    ni = tree.nodes[ni].subtree_end;
  }
  ASSERT_LT(ni, tree.nodes.size());
  const std::string name = "node " + std::to_string(ni) + "'s subtree_end";
  for (const std::size_t bad : {std::size_t{0}, ni, tree.nodes.size() + 1}) {
    ExecTree corrupt = tree;
    corrupt.nodes[ni].subtree_end = static_cast<std::uint32_t>(bad);
    const std::string diagnostic = rejection(w, {}, corrupt);
    EXPECT_NE(diagnostic.find(name), std::string::npos) << bad << ": " << diagnostic;
  }
  // A grandchild reaching past its parent's range (but not the root's).
  ExecTree corrupt = tree;
  corrupt.nodes[ni + 1].subtree_end = tree.nodes[ni].subtree_end + 1;
  const std::string diagnostic = rejection(w, {}, corrupt);
  EXPECT_NE(diagnostic.find("node " + std::to_string(ni + 1) + "'s subtree_end"),
            std::string::npos)
      << diagnostic;
}

TEST(PlanVerifier, RejectsFrameRangePastTheFrames) {
  const Workload w(decompose_to_cx_basis(make_ghz(5)),
                   NoiseModel::uniform(5, 0.03, 0.1, 0.02), 500, 17);
  ScheduleOptions options;
  options.frame_collapse = true;
  ExecTree tree = proved_tree(w, options);
  ASSERT_FALSE(tree.frames.empty());
  std::size_t ni = 0;
  while (tree.nodes[ni].frames_begin == tree.nodes[ni].frames_end) {
    ++ni;
  }
  tree.nodes[ni].frames_end = static_cast<std::uint32_t>(tree.frames.size() + 1);
  const std::string diagnostic = rejection(w, options, tree);
  EXPECT_NE(diagnostic.find("node " + std::to_string(ni) + "'s frame range"),
            std::string::npos)
      << diagnostic;
}

TEST(PlanVerifier, RejectsReplayRangePastTheTrialSet) {
  const Workload w(3, 0.05, 500, 4);
  ExecTree tree = proved_tree(w, {});
  std::size_t ni = 0;
  while (tree.nodes[ni].kind != TreeNode::Kind::kReplay) {
    ++ni;
  }
  TreeNode& leaf = tree.nodes[ni];
  leaf.begin = static_cast<std::uint32_t>(w.trials.size());
  leaf.end = leaf.begin + 1;
  leaf.tail_begin = leaf.end;
  const std::string diagnostic = rejection(w, {}, tree);
  EXPECT_NE(diagnostic.find("node " + std::to_string(ni) + "'s replay range"),
            std::string::npos)
      << diagnostic;
}

// ---------------------------------------------------------------------------
// Entry-point run-limit guards (satellite): max_states == 0 stays the
// documented "unlimited" sentinel everywhere; overflowed/negative counts
// are rejected before any allocation is attempted.

Circuit guard_circuit() { return decompose_to_cx_basis(make_qft(3)); }
NoiseModel guard_noise() { return NoiseModel::uniform(3, 0.02, 0.08, 0.02); }

TEST(RunLimits, MaxStatesZeroIsUnlimitedAtEveryEntryPoint) {
  NoisyRunConfig config;
  config.num_trials = 200;
  config.max_states = 0;
  EXPECT_GT(run_noisy(guard_circuit(), guard_noise(), config).ops, 0u);
  EXPECT_GT(analyze_noisy(guard_circuit(), guard_noise(), config).ops, 0u);
  NoisyRunConfig parallel = config;
  parallel.num_threads = 2;
  EXPECT_GT(run_noisy(guard_circuit(), guard_noise(), parallel).ops, 0u);

  SimService service({.num_workers = 0});
  JobSpec spec;
  spec.circuit = guard_circuit();
  spec.noise = guard_noise();
  spec.config = config;
  const SubmitOutcome outcome = service.try_submit(std::move(spec));
  EXPECT_EQ(outcome.status, SubmitStatus::kAccepted);
  service.run_pending();
  EXPECT_EQ(service.wait(outcome.job_id).state, JobState::kDone);
}

TEST(RunLimits, RejectsOverflowedTrialCounts) {
  NoisyRunConfig config;
  config.num_trials = static_cast<std::size_t>(-5);  // negative input, wrapped
  EXPECT_THROW(run_noisy(guard_circuit(), guard_noise(), config), Error);
  EXPECT_THROW(analyze_noisy(guard_circuit(), guard_noise(), config), Error);
  NoisyRunConfig parallel;
  parallel.num_trials = kMaxTrialCount + 1;
  parallel.num_threads = 2;
  EXPECT_THROW(run_noisy(guard_circuit(), guard_noise(), parallel), Error);
}

TEST(RunLimits, RejectsOverflowedOrSingletonBudgets) {
  NoisyRunConfig config;
  config.num_trials = 10;
  config.max_states = 1;  // below the 2-state minimum
  EXPECT_THROW(run_noisy(guard_circuit(), guard_noise(), config), Error);
  config.max_states = kMaxStatesBudget + 1;  // overflowed / negative input
  EXPECT_THROW(analyze_noisy(guard_circuit(), guard_noise(), config), Error);
}

TEST(RunLimits, ServiceRejectsOverflowedSpecsAsInvalid) {
  SimService service({.num_workers = 0});
  JobSpec spec;
  spec.circuit = guard_circuit();
  spec.noise = guard_noise();
  spec.config.num_trials = static_cast<std::size_t>(-1);
  EXPECT_EQ(service.try_submit(spec).status, SubmitStatus::kInvalid);

  spec.config.num_trials = 10;
  spec.config.max_states = kMaxStatesBudget + 7;
  EXPECT_EQ(service.try_submit(spec).status, SubmitStatus::kInvalid);

  spec.config.max_states = 0;
  spec.config.num_threads = static_cast<std::size_t>(-2);
  EXPECT_EQ(service.try_submit(spec).status, SubmitStatus::kInvalid);
  spec.config.num_threads = kMaxThreadCount + 1;
  EXPECT_EQ(service.try_submit(spec).status, SubmitStatus::kInvalid);
}

TEST(RunLimits, RejectsThreadCountsAboveTheBoundBeforeGenerating) {
  // The noise model is too small as well, a fault trial generation would
  // report first; the thread bound must be named instead.
  NoisyRunConfig config;
  config.num_trials = 10;
  config.num_threads = kMaxThreadCount + 1;
  const NoiseModel small = NoiseModel::uniform(2, 0.02, 0.08, 0.02);
  for (const bool analyze : {false, true}) {
    try {
      if (analyze) {
        analyze_noisy(guard_circuit(), small, config);
      } else {
        run_noisy(guard_circuit(), small, config);
      }
      ADD_FAILURE() << "num_threads " << config.num_threads << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("num_threads 1025 exceeds"),
                std::string::npos)
          << e.what();
    }
  }
  config.num_threads = kMaxThreadCount;
  EXPECT_GT(analyze_noisy(guard_circuit(), guard_noise(), config).ops, 0u);
}

}  // namespace
}  // namespace rqsim
