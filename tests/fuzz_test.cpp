// Randomized whole-pipeline property tests: random circuits × random noise
// levels, checked across every execution mode. These are the "shake it and
// see" tests that catch interactions the targeted suites miss.
#include <gtest/gtest.h>

#include "circuit/layering.hpp"
#include "circuit/qasm.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "recording_sink.hpp"
#include "sched/backend.hpp"
#include "sched/baseline.hpp"
#include "sched/cached.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "sim/reference.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

// Random circuit over the full IR gate set (pre-decomposition kinds too).
Circuit random_circuit(Rng& rng, unsigned max_qubits, int max_gates) {
  const unsigned n = 2 + static_cast<unsigned>(rng.uniform_int(max_qubits - 1));
  Circuit c(n);
  const int gates = 1 + static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(max_gates)));
  for (int i = 0; i < gates; ++i) {
    const auto q = static_cast<qubit_t>(rng.uniform_int(n));
    auto r = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (r >= q) {
      ++r;
    }
    switch (rng.uniform_int(10)) {
      case 0:
        c.h(q);
        break;
      case 1:
        c.x(q);
        break;
      case 2:
        c.t(q);
        break;
      case 3:
        c.sdg(q);
        break;
      case 4:
        c.u3(q, rng.uniform(0, 2 * kPi), rng.uniform(0, 2 * kPi), rng.uniform(0, 2 * kPi));
        break;
      case 5:
        c.rz(q, rng.uniform(-kPi, kPi));
        break;
      case 6:
        c.cx(q, r);
        break;
      case 7:
        c.cz(q, r);
        break;
      case 8:
        c.cp(q, r, rng.uniform(0, kPi));
        break;
      default:
        c.ry(q, rng.uniform(-kPi, kPi));
        break;
    }
  }
  // Measure a random non-empty subset, in random order.
  const unsigned measured = 1 + static_cast<unsigned>(rng.uniform_int(n));
  std::vector<qubit_t> order(n);
  for (qubit_t q = 0; q < n; ++q) {
    order[q] = q;
  }
  std::shuffle(order.begin(), order.end(), rng);
  for (unsigned k = 0; k < measured; ++k) {
    c.measure(order[k]);
  }
  return c;
}

NoiseModel random_noise(Rng& rng, unsigned n) {
  NoiseModel noise =
      NoiseModel::uniform(n, rng.uniform(0.0, 0.15), rng.uniform(0.0, 0.3),
                          rng.uniform(0.0, 0.2));
  if (rng.bernoulli(0.5)) {
    noise.set_uniform_idle_rate(rng.uniform(0.0, 0.05));
  }
  return noise;
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, AllExecutionPathsAgree) {
  Rng rng(GetParam());
  const Circuit c = random_circuit(rng, 5, 40);
  const NoiseModel noise = random_noise(rng, c.num_qubits());
  const CircuitContext ctx(c);

  Rng trial_rng(GetParam() ^ 0xabcdef);
  auto trials = generate_trials(c, ctx.layering, noise, 150, trial_rng);
  const opcount_t baseline = baseline_op_count(ctx, trials);
  const ConsecutiveCacheResult unordered = consecutive_cached_count(ctx, TrialSet(trials));
  reorder_trials(trials);
  ASSERT_TRUE(is_reordered(TrialSet(trials)));

  // 1. Trace equivalence: every trial sees exactly its operator sequence.
  TraceBackend tracer(ctx, trials.size());
  schedule_trials(ctx, TrialSet(trials), tracer);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto expected = expected_trace(ctx, trials[i]);
    ASSERT_EQ(tracer.traces()[i].size(), expected.size()) << "trial " << i;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(tracer.traces()[i][k] == expected[k]) << "trial " << i << " op " << k;
    }
  }

  // 2. The count backend and the tree executor agree; ops bounded by
  // alternatives.
  CountBackend counter(ctx);
  schedule_trials(ctx, TrialSet(trials), counter);
  EXPECT_LE(counter.ops(), unordered.ops);
  EXPECT_LE(unordered.ops, baseline);
  EXPECT_EQ(counter.finished_trials(), trials.size());

  ScheduleOptions tight;
  tight.max_states = 2;
  for (const std::size_t threads : {1u, 4u}) {
    const RecordedRun run = run_recorded(ctx, trials, threads);
    EXPECT_EQ(run.stats.ops, counter.ops());
    EXPECT_EQ(run.tree.peak_demand, counter.max_live_states());

    // 3. Bitwise equivalence against direct per-trial simulation.
    for (std::size_t i = 0; i < trials.size(); ++i) {
      ASSERT_TRUE(run.final_states[i].bitwise_equal(simulate_trial(ctx, trials[i])))
          << "trial " << i << " at " << threads << " threads";
    }

    // 4. Capped scheduling stays within budget and is bitwise correct too.
    const RecordedRun capped = run_recorded(ctx, trials, threads, tight);
    EXPECT_LE(capped.tree.peak_demand, 2u);
    EXPECT_LE(capped.stats.max_live_states, 2u);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      ASSERT_TRUE(capped.final_states[i].bitwise_equal(run.final_states[i]))
          << "trial " << i << " at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(100, 120));

class QasmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QasmFuzz, RoundTripPreservesSemantics) {
  Rng rng(GetParam());
  const Circuit original = random_circuit(rng, 5, 30);
  const Circuit parsed = from_qasm(to_qasm(original));
  ASSERT_EQ(parsed.num_qubits(), original.num_qubits());
  ASSERT_EQ(parsed.num_gates(), original.num_gates());
  ASSERT_EQ(parsed.measured_qubits(), original.measured_qubits());
  const StateVector a = reference_simulate(original);
  const StateVector b = reference_simulate(parsed);
  EXPECT_GT(a.fidelity(b), 1.0 - 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmFuzz, ::testing::Range<std::uint64_t>(200, 215));

}  // namespace
}  // namespace rqsim
