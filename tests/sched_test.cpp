#include <gtest/gtest.h>

#include <tuple>

#include "bench_circuits/qft.hpp"
#include "bench_circuits/qv.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "sched/backend.hpp"
#include "sched/baseline.hpp"
#include "sched/cached.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sched/runner.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

Circuit test_circuit() {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  c.cx(0, 1);
  c.t(2);
  c.cx(1, 2);
  c.h(0);
  c.measure_all();
  return c;
}

// ---------------------------------------------------------------- context

TEST(CircuitContext, OpPrefixSums) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  EXPECT_EQ(ctx.total_gate_ops(), c.num_gates());
  EXPECT_EQ(ctx.ops_in_layers(0, static_cast<layer_index_t>(ctx.num_layers())),
            c.num_gates());
  EXPECT_EQ(ctx.ops_in_layers(1, 1), 0u);
  opcount_t sum = 0;
  for (layer_index_t l = 0; l < ctx.num_layers(); ++l) {
    sum += ctx.ops_in_layers(l, l + 1);
  }
  EXPECT_EQ(sum, c.num_gates());
}

TEST(CircuitContext, BaselineOpCount) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  std::vector<Trial> trials(3);
  trials[0].events = {{0, 0, 1}};
  trials[1].events = {{0, 0, 1}, {1, 3, 2}};
  const opcount_t expected = 3 * c.num_gates() + 3;
  EXPECT_EQ(baseline_op_count(ctx, trials), expected);
}

// ---------------------------------------------------------------- walker

TEST(Scheduler, RequiresReorderedInput) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  std::vector<Trial> trials(2);
  trials[0].events = {};           // error-free first = NOT reorder order
  trials[1].events = {{0, 0, 1}};
  CountBackend backend(ctx);
  EXPECT_THROW(schedule_trials(ctx, TrialSet(trials), backend), Error);
}

TEST(Scheduler, SingleErrorFreeTrialCostsOneCircuit) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  std::vector<Trial> trials(1);
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend);
  EXPECT_EQ(backend.ops(), c.num_gates());
  EXPECT_EQ(backend.max_live_states(), 1u);
  EXPECT_EQ(backend.finished_trials(), 1u);
}

TEST(Scheduler, DuplicateTrialsCostOneExecution) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  std::vector<Trial> trials(100);  // all error-free duplicates
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend);
  EXPECT_EQ(backend.ops(), c.num_gates());
  EXPECT_EQ(backend.finished_trials(), 100u);
  EXPECT_EQ(backend.max_live_states(), 1u);
}

TEST(Scheduler, PaperFigure2Example) {
  // Figure 2 of the paper: error-free trial plus three single-error trials
  // with errors in layers 2, 1, 0 respectively. After reordering the order
  // is (3)=layer0, (2)=layer1, (1)=layer2, error-free; only one extra
  // state vector is ever maintained (two live total).
  Circuit c(2);
  c.h(0);   // layer 0
  c.h(1);   // layer 0
  c.cx(0, 1);  // layer 1
  c.h(0);   // layer 2
  c.h(1);   // layer 2
  c.measure_all();
  const CircuitContext ctx(c);
  ASSERT_EQ(ctx.num_layers(), 3u);

  std::vector<Trial> trials(4);
  trials[0].events = {};
  trials[1].events = {{2, 3, 1}};
  trials[2].events = {{1, 2, 3}};
  trials[3].events = {{0, 0, 1}};
  reorder_trials(trials);
  // Reordered: layer0-error, layer1-error, layer2-error, error-free.
  EXPECT_EQ(trials[0].events[0].layer, 0u);
  EXPECT_EQ(trials[1].events[0].layer, 1u);
  EXPECT_EQ(trials[2].events[0].layer, 2u);
  EXPECT_TRUE(trials[3].events.empty());

  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend);
  // Shared layers counted once: 5 gates; each error trial pays 1 error op
  // plus the remaining layers after its error:
  //   layer0-error: 1 + layers 1,2 = 1 + 3
  //   layer1-error: 1 + layer 2    = 1 + 2
  //   layer2-error: 1 + nothing    = 1
  // error-free: nothing extra. Total = 5 + 4 + 3 + 1 = 13.
  EXPECT_EQ(backend.ops(), 13u);
  // Baseline: 4 trials × 5 gates + 3 errors = 23.
  EXPECT_EQ(baseline_op_count(ctx, trials), 23u);
  // One branch live at a time above the root.
  EXPECT_EQ(backend.max_live_states(), 2u);
}

TEST(Scheduler, SharedErrorDeepensStack) {
  Circuit c(2);
  c.h(0);      // layer 0
  c.cx(0, 1);  // layer 1
  c.h(1);      // layer 2
  c.measure_all();
  const CircuitContext ctx(c);

  // Two trials share the first error, then diverge on a second error.
  std::vector<Trial> trials(2);
  trials[0].events = {{0, 0, 1}, {1, 1, 2}};
  trials[1].events = {{0, 0, 1}, {2, 2, 1}};
  reorder_trials(trials);
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend);
  // Root advances layer0 (1 op); fork + shared error (1 op);
  // then subgroup: advance layer1 (1 op), fork + error2 (1), finish rest
  // layer2 (1); drop; advance layer2 on shared branch (1), fork + error (1).
  EXPECT_EQ(backend.max_live_states(), 3u);
  // ops: layer0=1, e1=1, layer1=1, e2=1, layer2=1 (trial0 tail), layer2=1
  // (shared branch tail), e3=1 -> 7.
  EXPECT_EQ(backend.ops(), 7u);
  EXPECT_EQ(baseline_op_count(ctx, trials), 2u * 3u + 4u);
}

TEST(Scheduler, EmptyTrialList) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  std::vector<Trial> trials;
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend);
  EXPECT_EQ(backend.ops(), 0u);
  EXPECT_EQ(backend.finished_trials(), 0u);
}

// ------------------------------------------------------- trace equivalence

struct TraceCase {
  unsigned qubits;
  double single_rate;
  double two_rate;
  std::size_t trials;
  std::uint64_t seed;
};

class TraceEquivalence : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceEquivalence, EveryTrialSeesItsExactOperatorSequence) {
  const TraceCase param = GetParam();
  const Circuit c = decompose_to_cx_basis(make_qft(param.qubits));
  const CircuitContext ctx(c);
  const NoiseModel noise =
      NoiseModel::uniform(param.qubits, param.single_rate, param.two_rate, 0.02);
  Rng rng(param.seed);
  auto trials = generate_trials(c, ctx.layering, noise, param.trials, rng);
  reorder_trials(trials);

  TraceBackend backend(ctx, trials.size());
  schedule_trials(ctx, TrialSet(trials), backend);
  ASSERT_EQ(backend.traces().size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto expected = expected_trace(ctx, trials[i]);
    ASSERT_EQ(backend.traces()[i].size(), expected.size()) << "trial " << i;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(backend.traces()[i][k] == expected[k]) << "trial " << i << " op " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceEquivalence,
    ::testing::Values(TraceCase{3, 0.01, 0.05, 100, 1},
                      TraceCase{3, 0.10, 0.30, 100, 2},
                      TraceCase{4, 0.00, 0.00, 50, 3},
                      TraceCase{4, 0.05, 0.15, 300, 4},
                      TraceCase{5, 0.02, 0.08, 200, 5},
                      TraceCase{5, 0.30, 0.50, 150, 6}));

// ------------------------------------------------- backend cross-validation

class BackendAgreement : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(BackendAgreement, CountBackendAndTreeAgreeOnCosts) {
  const auto [qubits, rate] = GetParam();
  const Circuit c = decompose_to_cx_basis(make_qv(qubits, 3, /*seed=*/17));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(qubits, rate, rate * 5, 0.01);
  Rng rng(123);
  auto trials = generate_trials(c, ctx.layering, noise, 200, rng);
  reorder_trials(trials);

  CountBackend counter(ctx);
  schedule_trials(ctx, TrialSet(trials), counter);

  const ExecTree tree = build_exec_tree(ctx, trials);
  SampledTrialSink sink(ctx, trials, nullptr);
  const TreeExecStats stats = execute_tree(ctx, tree, trials, TreeExecConfig{}, sink);

  EXPECT_EQ(counter.ops(), stats.ops);
  EXPECT_EQ(counter.copies(), stats.fork_copies);
  EXPECT_EQ(counter.max_live_states(), tree.peak_demand);
  EXPECT_EQ(counter.finished_trials(), trials.size());
  EXPECT_LE(counter.ops(), baseline_op_count(ctx, trials));
  EXPECT_GE(counter.max_live_states(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BackendAgreement,
                         ::testing::Combine(::testing::Values(3u, 4u, 5u),
                                            ::testing::Values(0.005, 0.05, 0.2)));

// ------------------------------------------------------- savings properties

TEST(Scheduler, SavingsGrowWithTrialCount) {
  // More trials -> more duplicate prefixes -> lower normalized computation.
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.002, 0.02, 0.01);
  std::vector<double> normalized;
  for (std::size_t n : {128u, 1024u, 8192u}) {
    Rng rng(42);
    auto trials = generate_trials(c, ctx.layering, noise, n, rng);
    const opcount_t base = baseline_op_count(ctx, trials);
    reorder_trials(trials);
    CountBackend backend(ctx);
    schedule_trials(ctx, TrialSet(trials), backend);
    normalized.push_back(static_cast<double>(backend.ops()) /
                         static_cast<double>(base));
  }
  // 64x more trials must save decisively more (single steps can be noisy).
  EXPECT_LT(normalized.back(), normalized.front());
  EXPECT_LT(normalized.back(), 0.2);  // large trial counts must save a lot here
}

TEST(ConsecutiveCache, UnorderedNeverBeatsReordered) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.01, 0.05, 0.01);
  Rng rng(77);
  auto trials = generate_trials(c, ctx.layering, noise, 1000, rng);

  const ConsecutiveCacheResult unordered = consecutive_cached_count(ctx, TrialSet(trials));
  auto sorted = trials;
  reorder_trials(sorted);
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(sorted), backend);

  EXPECT_LE(backend.ops(), unordered.ops);
  EXPECT_LE(unordered.ops, baseline_op_count(ctx, trials));
}

TEST(ConsecutiveCache, EmptyAndAllDuplicates) {
  const Circuit c = test_circuit();
  const CircuitContext ctx(c);
  EXPECT_EQ(consecutive_cached_count(ctx, {}).ops, 0u);

  std::vector<Trial> dups(5);  // identical error-free trials
  const ConsecutiveCacheResult r = consecutive_cached_count(ctx, TrialSet(dups));
  // First trial pays the circuit; the rest share prefix 0 events but the
  // pinned-checkpoint scheme still replays all layers (prefix of length 0).
  EXPECT_EQ(r.ops, 5u * ctx.total_gate_ops());
  EXPECT_EQ(r.max_live_states, 1u);
}

TEST(MsvBudget, SingleStateBudgetRejectedEverywhere) {
  // max_states == 1 cannot host a checkpoint plus a scratch state; the
  // documented contract is 0 (unlimited) or >= 2, and every entry point
  // must enforce it — not just the cached scheduler.
  const Circuit c = test_circuit();
  const NoiseModel noise = NoiseModel::uniform(3, 0.02, 0.05, 0.01);

  NoisyRunConfig config;
  config.num_trials = 10;
  config.max_states = 1;
  EXPECT_THROW(run_noisy(c, noise, config), Error);
  EXPECT_THROW(analyze_noisy(c, noise, config), Error);
  config.mode = ExecutionMode::kBaseline;
  EXPECT_THROW(run_noisy(c, noise, config), Error);
  EXPECT_THROW(analyze_noisy(c, noise, config), Error);
  config.mode = ExecutionMode::kCachedUnordered;
  EXPECT_THROW(analyze_noisy(c, noise, config), Error);

  const CircuitContext ctx(c);
  Rng rng(5);
  auto trials = generate_trials(c, ctx.layering, noise, 10, rng);
  reorder_trials(trials);
  CountBackend backend(ctx);
  ScheduleOptions options;
  options.max_states = 1;
  EXPECT_THROW(schedule_trials(ctx, TrialSet(trials), backend, options), Error);

  // The documented budgets still work.
  config = NoisyRunConfig{};
  config.num_trials = 10;
  config.max_states = 2;
  EXPECT_LE(run_noisy(c, noise, config).max_live_states, 2u);
  config.max_states = 0;
  EXPECT_GT(run_noisy(c, noise, config).ops, 0u);
}

}  // namespace
}  // namespace rqsim
