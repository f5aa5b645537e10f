// MSV-budget scheduling: capping the number of maintained state vectors
// must respect the cap, never change results, and trade computation
// monotonically for memory.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/qft.hpp"
#include "bench_circuits/qv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
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

struct Workload {
  Circuit circuit;
  CircuitContext ctx;
  std::vector<Trial> trials;

  Workload(Circuit c, const NoiseModel& noise, std::size_t n, std::uint64_t seed)
      : circuit(std::move(c)), ctx(circuit) {
    Rng rng(seed);
    trials = generate_trials(circuit, ctx.layering, noise, n, rng);
    reorder_trials(trials);
  }

  Workload(unsigned qubits, double rate, std::size_t n, std::uint64_t seed)
      : Workload(decompose_to_cx_basis(make_qft(qubits)),
                 NoiseModel::uniform(qubits, rate, rate * 4, 0.02), n, seed) {}
};

TEST(CappedScheduler, RespectsBudget) {
  Workload w(4, 0.05, 2000, 1);
  for (std::size_t cap : {2u, 3u, 4u, 6u}) {
    ScheduleOptions options;
    options.max_states = cap;
    CountBackend backend(w.ctx);
    schedule_trials(w.ctx, TrialSet(w.trials), backend, options);
    EXPECT_LE(backend.max_live_states(), cap) << "cap=" << cap;
    EXPECT_EQ(backend.finished_trials(), w.trials.size());
  }
}

TEST(CappedScheduler, OpsMonotoneInBudget) {
  Workload w(4, 0.05, 3000, 2);
  opcount_t previous_ops = ~opcount_t{0};
  std::vector<opcount_t> ops_by_cap;
  for (std::size_t cap : {2u, 3u, 4u, 5u, 8u, 0u}) {  // 0 = unlimited, last
    ScheduleOptions options;
    options.max_states = cap;
    CountBackend backend(w.ctx);
    schedule_trials(w.ctx, TrialSet(w.trials), backend, options);
    ops_by_cap.push_back(backend.ops());
  }
  for (std::size_t i = 1; i < ops_by_cap.size(); ++i) {
    EXPECT_LE(ops_by_cap[i], ops_by_cap[i - 1]) << "step " << i;
  }
  EXPECT_LT(ops_by_cap.back(), ops_by_cap.front());
  (void)previous_ops;
}

TEST(CappedScheduler, UnlimitedEqualsDefault) {
  Workload w(4, 0.03, 1000, 3);
  CountBackend plain(w.ctx);
  schedule_trials(w.ctx, TrialSet(w.trials), plain);
  ScheduleOptions options;
  options.max_states = 0;
  CountBackend opt(w.ctx);
  schedule_trials(w.ctx, TrialSet(w.trials), opt, options);
  EXPECT_EQ(plain.ops(), opt.ops());
  EXPECT_EQ(plain.max_live_states(), opt.max_live_states());
}

TEST(CappedScheduler, LargeBudgetMatchesUnlimited) {
  Workload w(4, 0.05, 1000, 4);
  CountBackend unlimited(w.ctx);
  schedule_trials(w.ctx, TrialSet(w.trials), unlimited);
  ScheduleOptions options;
  options.max_states = unlimited.max_live_states();  // exactly the natural MSV
  CountBackend capped(w.ctx);
  schedule_trials(w.ctx, TrialSet(w.trials), capped, options);
  EXPECT_EQ(capped.ops(), unlimited.ops());
}

TEST(CappedScheduler, RejectsCapOfOne) {
  Workload w(3, 0.05, 10, 5);
  ScheduleOptions options;
  options.max_states = 1;
  CountBackend backend(w.ctx);
  EXPECT_THROW(schedule_trials(w.ctx, TrialSet(w.trials), backend, options), Error);
}

/// Run `w` under `cap` on `threads` workers: every final state must be
/// byte-identical to the trial simulated on its own.
void expect_bitwise_under_budget(const Workload& w, std::size_t cap,
                                 std::size_t threads) {
  ScheduleOptions options;
  options.max_states = cap;
  const RecordedRun result = run_recorded(w.ctx, w.trials, threads, options);
  ASSERT_EQ(result.final_states.size(), w.trials.size());
  for (std::size_t i = 0; i < w.trials.size(); ++i) {
    EXPECT_TRUE(result.final_states[i].bitwise_equal(simulate_trial(w.ctx, w.trials[i])))
        << "cap=" << cap << " threads=" << threads << " trial=" << i;
  }
  if (cap != 0) {
    EXPECT_LE(result.tree.peak_demand, cap);
    EXPECT_LE(result.stats.max_live_states, cap);
  }
}

TEST(CappedScheduler, BitwiseCorrectUnderTightBudget) {
  // The crucial property: capping changes scheduling, never results.
  Workload w(4, 0.08, 400, 6);
  for (std::size_t cap : {2u, 3u, 0u}) {
    for (const std::size_t threads : {1u, 4u}) {
      expect_bitwise_under_budget(w, cap, threads);
    }
  }
  // GHZ: nearly every amplitude is zero, and Z errors act on signs only.
  // The budget refuses forks at 4 and 8 threads; the comparison is a
  // memcmp, so it also checks the sign of every zero.
  for (const unsigned n : {6u, 10u}) {
    SCOPED_TRACE("ghz:" + std::to_string(n));
    const Workload ghz(decompose_to_cx_basis(make_ghz(n)),
                       NoiseModel::uniform(n, 0.02, 0.08, 0.02), 600, 13);
    for (std::size_t cap : {2u, 3u}) {
      for (const std::size_t threads : {4u, 8u}) {
        expect_bitwise_under_budget(ghz, cap, threads);
      }
    }
  }
}

TEST(CappedScheduler, TraceCorrectUnderTightBudget) {
  Workload w(3, 0.10, 300, 7);
  ScheduleOptions options;
  options.max_states = 2;
  TraceBackend backend(w.ctx, w.trials.size());
  schedule_trials(w.ctx, TrialSet(w.trials), backend, options);
  for (std::size_t i = 0; i < w.trials.size(); ++i) {
    const auto expected = expected_trace(w.ctx, w.trials[i]);
    ASSERT_EQ(backend.traces()[i].size(), expected.size()) << i;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(backend.traces()[i][k] == expected[k]) << i;
    }
  }
}

TEST(CappedScheduler, RunnerPlumbsBudget) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.05, 0.2, 0.02);
  NoisyRunConfig config;
  config.num_trials = 2000;
  config.seed = 8;
  config.max_states = 3;
  const NoisyRunResult capped = analyze_noisy(c, noise, config);
  EXPECT_LE(capped.max_live_states, 3u);
  config.max_states = 0;
  const NoisyRunResult unlimited = analyze_noisy(c, noise, config);
  EXPECT_LE(unlimited.ops, capped.ops);
  // Even capped at 3 states, still much better than baseline.
  EXPECT_LT(capped.normalized_computation, 1.0);
}

TEST(CappedScheduler, TightBudgetStillSharesTopLevelPrefix) {
  // cap=2: only the root checkpoint advances, every branch replays — but
  // the shared error-free prefix advance still saves work versus baseline.
  const Circuit c = decompose_to_cx_basis(make_qv(4, 3, /*seed=*/9));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.01, 0.05, 0.0);
  Rng rng(10);
  auto trials = generate_trials(c, ctx.layering, noise, 3000, rng);
  const opcount_t base = baseline_op_count(ctx, trials);
  reorder_trials(trials);
  ScheduleOptions options;
  options.max_states = 2;
  CountBackend backend(ctx);
  schedule_trials(ctx, TrialSet(trials), backend, options);
  EXPECT_LT(backend.ops(), base);
}

}  // namespace
}  // namespace rqsim
