#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bench_circuits/qft.hpp"
#include "circuit/layering.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "trial/generator.hpp"
#include "trial/stats.hpp"
#include "trial/trial.hpp"
#include "transpile/decompose.hpp"

namespace rqsim {
namespace {

Circuit simple_circuit() {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  c.cx(0, 1);
  c.cx(1, 2);
  c.h(0);
  c.measure_all();
  return c;
}

TEST(Trial, SharedPrefixLength) {
  Trial a;
  Trial b;
  a.events = {{0, 0, 1}, {1, 3, 2}, {2, 5, 1}};
  b.events = {{0, 0, 1}, {1, 3, 2}, {2, 5, 3}};
  EXPECT_EQ(shared_prefix_length(a, b), 2u);
  b.events = a.events;
  EXPECT_EQ(shared_prefix_length(a, b), 3u);
  b.events.clear();
  EXPECT_EQ(shared_prefix_length(a, b), 0u);
}

TEST(TrialSet, FlatLayoutViewsReorderAndRoundTrip) {
  std::vector<Trial> trials(4);
  trials[0].events = {{0, 0, 1}, {2, 3, 2}};
  trials[1].meas_flip_mask = 5;  // error-free
  trials[2].events = {{1, 4, 3}};
  trials[2].meas_seed = 9;
  trials[3].events = {{0, 1, 1}};
  const TrialSet set(trials);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set.total_errors(), 4u);  // error-free trials store no events
  EXPECT_EQ(set[1].num_errors(), 0u);
  EXPECT_EQ(set[1].meas_flip_mask, 5u);
  EXPECT_EQ(set[2].meas_seed, 9u);
  EXPECT_TRUE(set[0].events[1] == (ErrorEvent{2, 3, 2}));
  std::size_t visited = 0;
  for (const TrialView t : set) {
    EXPECT_EQ(t.num_errors(), trials[visited].num_errors());
    ++visited;
  }
  EXPECT_EQ(visited, 4u);

  TrialSet moved = set;
  const std::vector<std::uint32_t> order = {2, 0, 3, 1};
  moved.reorder(order);
  const std::vector<Trial> back = moved.to_trials();
  for (std::size_t p = 0; p < order.size(); ++p) {
    EXPECT_EQ(back[p].events, trials[order[p]].events) << "p=" << p;
    EXPECT_EQ(back[p].meas_flip_mask, trials[order[p]].meas_flip_mask);
    EXPECT_EQ(back[p].meas_seed, trials[order[p]].meas_seed);
  }
}

TEST(Trial, EventOrdering) {
  const ErrorEvent a{0, 1, 1};
  const ErrorEvent b{0, 1, 2};
  const ErrorEvent c{0, 2, 1};
  const ErrorEvent d{1, 0, 1};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(c < d);
  EXPECT_FALSE(d < a);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
}

TEST(Generator, DeterministicFromSeed) {
  const Circuit c = simple_circuit();
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(3, 0.05, 0.2, 0.1);
  Rng rng1(77);
  Rng rng2(77);
  const auto t1 = generate_trials(c, l, noise, 200, rng1);
  const auto t2 = generate_trials(c, l, noise, 200, rng2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].events.size(), t2[i].events.size());
    EXPECT_EQ(t1[i].meas_flip_mask, t2[i].meas_flip_mask);
    for (std::size_t k = 0; k < t1[i].events.size(); ++k) {
      EXPECT_TRUE(t1[i].events[k] == t2[i].events[k]);
    }
  }
}

TEST(Generator, EventsSortedAndValid) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.1, 0.05);
  Rng rng(5);
  const auto trials = generate_trials(c, l, noise, 500, rng);
  for (const Trial& t : trials) {
    EXPECT_TRUE(std::is_sorted(t.events.begin(), t.events.end()));
    for (const ErrorEvent& e : t.events) {
      ASSERT_LT(e.position, c.num_gates());
      EXPECT_EQ(e.layer, l.layer_of_gate[e.position]);
      const int arity = c.gates()[e.position].arity();
      if (arity == 1) {
        EXPECT_GE(e.op, 1);
        EXPECT_LE(e.op, 3);
      } else {
        EXPECT_GE(e.op, 1);
        EXPECT_LE(e.op, 15);
      }
    }
    // At most one error per gate position.
    for (std::size_t k = 1; k < t.events.size(); ++k) {
      EXPECT_NE(t.events[k].position, t.events[k - 1].position);
    }
  }
}

TEST(Generator, ErrorFrequencyMatchesModel) {
  // Single CX with rate 0.25: over many trials about 25% should carry an
  // error, uniformly spread over the 15 Pauli pairs.
  Circuit c(2);
  c.cx(0, 1);
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(2, 0.0, 0.25, 0.0);
  Rng rng(9);
  const std::size_t n = 40000;
  const auto trials = generate_trials(c, l, noise, n, rng);
  std::size_t with_error = 0;
  std::vector<std::size_t> op_counts(16, 0);
  for (const Trial& t : trials) {
    if (!t.events.empty()) {
      ++with_error;
      ++op_counts[t.events[0].op];
    }
  }
  EXPECT_NEAR(with_error / static_cast<double>(n), 0.25, 0.01);
  for (int op = 1; op <= 15; ++op) {
    EXPECT_NEAR(op_counts[op] / static_cast<double>(with_error), 1.0 / 15.0, 0.01);
  }
  EXPECT_EQ(op_counts[0], 0u);
}

TEST(Generator, MeasurementFlipFrequency) {
  Circuit c(2);
  c.h(0);
  c.measure_all();
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(2, 0.0, 0.0, 0.3);
  Rng rng(10);
  const std::size_t n = 30000;
  const auto trials = generate_trials(c, l, noise, n, rng);
  std::size_t flips_bit0 = 0;
  std::size_t flips_bit1 = 0;
  for (const Trial& t : trials) {
    flips_bit0 += (t.meas_flip_mask >> 0) & 1;
    flips_bit1 += (t.meas_flip_mask >> 1) & 1;
  }
  EXPECT_NEAR(flips_bit0 / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(flips_bit1 / static_cast<double>(n), 0.3, 0.01);
}

TEST(Generator, NoiselessYieldsEmptyTrials) {
  const Circuit c = simple_circuit();
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(3, 0.0, 0.0, 0.0);
  Rng rng(11);
  const auto trials = generate_trials(c, l, noise, 100, rng);
  for (const Trial& t : trials) {
    EXPECT_TRUE(t.events.empty());
    EXPECT_EQ(t.meas_flip_mask, 0u);
  }
}

TEST(Generator, LogFreeSkipFiresOnlyWhereTheExactSkipCoversTheClass) {
  // The generator breaks out of a rate class when its first draw u is at
  // least u_hi, without evaluating the skip. That is sound only if the
  // exact skip floor(log1p(-u) * inv_log_keep) is >= the class size there.
  Rng rng(2718);
  std::size_t fired = 0;
  for (const double rate : {1e-9, 1e-4, 1e-3, 0.3, 1.0 - 1e-9}) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{16}, std::size_t{100000}}) {
      const GeometricSkip skip(rate, size);
      const auto check = [&](double u) {
        if (u < 0.0 || u >= 1.0 || u < skip.u_hi) {
          return;  // not a draw, or the fast path does not fire
        }
        ++fired;
        ASSERT_GE(skip.skip(u), static_cast<double>(size))
            << "rate=" << rate << " size=" << size << " u=" << u;
      };
      check(skip.u_hi);
      check(std::nextafter(skip.u_hi, 0.0));
      check(std::nextafter(skip.u_hi, 2.0));
      // Half the probes uniform in [0, 1), half within 1e-6 (relative)
      // of the threshold, where the margin is tightest.
      for (int i = 0; i < 500000; ++i) {
        check(rng.uniform());
        check(skip.u_hi * (1.0 + (rng.uniform() - 0.5) * 1e-6));
      }
    }
  }
  EXPECT_GT(fired, 0u);
}

TEST(Generator, RejectsThreeQubitGates) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(3, 0.1, 0.1, 0.1);
  Rng rng(12);
  EXPECT_THROW(generate_trial(c, l, noise, rng), Error);
}

TEST(Stats, ComputeTrialStats) {
  std::vector<Trial> trials(4);
  trials[0].events = {{0, 0, 1}};
  trials[1].events = {{0, 0, 1}, {1, 1, 2}};
  // trials[2], trials[3] error-free.
  const TrialSetStats stats = compute_trial_stats(trials);
  EXPECT_EQ(stats.num_trials, 4u);
  EXPECT_EQ(stats.total_errors, 3u);
  EXPECT_EQ(stats.max_errors, 2u);
  EXPECT_EQ(stats.error_free_trials, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_errors, 0.75);
  ASSERT_EQ(stats.error_count_histogram.size(), 3u);
  EXPECT_EQ(stats.error_count_histogram[0], 2u);
  EXPECT_EQ(stats.error_count_histogram[1], 1u);
  EXPECT_EQ(stats.error_count_histogram[2], 1u);
}

TEST(Stats, MeanConsecutiveSharedPrefix) {
  std::vector<Trial> trials(3);
  trials[0].events = {{0, 0, 1}, {1, 1, 1}};
  trials[1].events = {{0, 0, 1}, {1, 1, 1}};
  trials[2].events = {{0, 0, 1}};
  // prefixes: (t0,t1)=2, (t1,t2)=1 -> mean 1.5
  EXPECT_DOUBLE_EQ(mean_consecutive_shared_prefix(TrialSet(trials)), 1.5);
  EXPECT_DOUBLE_EQ(mean_consecutive_shared_prefix({}), 0.0);
}

}  // namespace
}  // namespace rqsim
