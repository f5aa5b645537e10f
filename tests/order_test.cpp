#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/qft.hpp"
#include "circuit/layering.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sched/tree.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"
#include "trial/stats.hpp"

namespace rqsim {
namespace {

Trial make_trial(std::vector<ErrorEvent> events) {
  Trial t;
  t.events = std::move(events);
  return t;
}

TEST(Order, ComparatorLexicographic) {
  const Trial a = make_trial({{0, 0, 1}});
  const Trial b = make_trial({{0, 0, 2}});
  const Trial c = make_trial({{1, 2, 1}});
  EXPECT_TRUE(trial_order_less(a, b));
  EXPECT_TRUE(trial_order_less(b, c));
  EXPECT_TRUE(trial_order_less(a, c));
  EXPECT_FALSE(trial_order_less(c, a));
}

TEST(Order, ExhaustedSortsAfterLongerPrefix) {
  // A trial that is a strict prefix of another must come *after* it, so
  // the error-free continuation runs last.
  const Trial longer = make_trial({{0, 0, 1}, {2, 3, 1}});
  const Trial shorter = make_trial({{0, 0, 1}});
  EXPECT_TRUE(trial_order_less(longer, shorter));
  EXPECT_FALSE(trial_order_less(shorter, longer));
  // The empty (error-free) trial is the global maximum.
  const Trial empty;
  EXPECT_TRUE(trial_order_less(shorter, empty));
  EXPECT_FALSE(trial_order_less(empty, shorter));
}

TEST(Order, EqualTrialsNotLess) {
  const Trial a = make_trial({{0, 0, 1}});
  const Trial b = make_trial({{0, 0, 1}});
  EXPECT_FALSE(trial_order_less(a, b));
  EXPECT_FALSE(trial_order_less(b, a));
}

TEST(Order, StrictWeakOrderingOnRandomSample) {
  Rng rng(3);
  std::vector<Trial> trials;
  for (int i = 0; i < 60; ++i) {
    Trial t;
    const int k = static_cast<int>(rng.uniform_int(4));
    layer_index_t layer = 0;
    for (int j = 0; j < k; ++j) {
      layer += static_cast<layer_index_t>(rng.uniform_int(3));
      t.events.push_back({layer, static_cast<gate_index_t>(rng.uniform_int(4)),
                          static_cast<std::uint8_t>(1 + rng.uniform_int(3))});
      std::sort(t.events.begin(), t.events.end());
    }
    trials.push_back(std::move(t));
  }
  // Irreflexivity and antisymmetry.
  for (const Trial& a : trials) {
    EXPECT_FALSE(trial_order_less(a, a));
  }
  for (const Trial& a : trials) {
    for (const Trial& b : trials) {
      EXPECT_FALSE(trial_order_less(a, b) && trial_order_less(b, a));
      // Transitivity spot check via sort validity is covered below.
      (void)b;
    }
  }
  std::vector<Trial> sorted = trials;
  reorder_trials(sorted);
  EXPECT_TRUE(is_reordered(TrialSet(sorted)));
}

TEST(Order, ReorderIsPermutation) {
  Rng rng(4);
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.1, 0.0);
  auto trials = generate_trials(c, l, noise, 300, rng);
  const TrialSetStats before = compute_trial_stats(trials);
  reorder_trials(trials);
  const TrialSetStats after = compute_trial_stats(trials);
  EXPECT_EQ(before.total_errors, after.total_errors);
  EXPECT_EQ(before.error_count_histogram, after.error_count_histogram);
  EXPECT_TRUE(is_reordered(TrialSet(trials)));
}

/// The specification: the generation indices of `trials` in
/// std::stable_sort(trial_order_less) order.
std::vector<std::uint32_t> stable_sort_order(const TrialSet& trials) {
  std::vector<std::uint32_t> order(trials.size());
  for (std::uint32_t t = 0; t < order.size(); ++t) {
    order[t] = t;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return trial_order_less(trials[a], trials[b]);
  });
  return order;
}

/// Random trials with 0-8 errors over 6 layers x 10 positions (positions 8
/// and 9 recur in every layer, like idle events), drawn from a small pool
/// of event lists so duplicate lists are common. With probability
/// `shared_first`, a trial starts with the same first event, which puts a
/// group above the counting-sort threshold at depth 1.
TrialSet random_trial_set(std::size_t n, double shared_first, Rng& rng) {
  std::vector<Trial> pool(40);
  for (Trial& t : pool) {
    const std::size_t k = rng.uniform_int(9);
    for (std::size_t j = 0; j < k; ++j) {
      t.events.push_back({static_cast<layer_index_t>(rng.uniform_int(6)),
                          static_cast<gate_index_t>(rng.uniform_int(10)),
                          static_cast<std::uint8_t>(1 + rng.uniform_int(15))});
    }
  }
  std::vector<Trial> trials;
  for (std::size_t i = 0; i < n; ++i) {
    Trial t;
    if (rng.uniform() < 0.5) {
      t = pool[rng.uniform_int(pool.size())];
    } else {
      const std::size_t k = rng.uniform_int(9);
      for (std::size_t j = 0; j < k; ++j) {
        t.events.push_back({static_cast<layer_index_t>(rng.uniform_int(6)),
                            static_cast<gate_index_t>(rng.uniform_int(10)),
                            static_cast<std::uint8_t>(1 + rng.uniform_int(3))});
      }
    }
    if (rng.uniform() < shared_first) {
      t.events.push_back({0, 1, 2});
    }
    std::sort(t.events.begin(), t.events.end());
    t.meas_seed = i;
    trials.push_back(std::move(t));
  }
  return TrialSet(trials);
}

TEST(Order, BucketPassPermutationEqualsStableSort) {
  // Sizes below and far above the rank range (at most 60 slots x 16 ops),
  // at the root and, through the shared first event, at depth 1.
  Rng rng(5);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 60u, 900u, 6000u}) {
    for (const double shared_first : {0.0, 0.9}) {
      const TrialSet trials = random_trial_set(n, shared_first, rng);
      EXPECT_EQ(reorder_permutation(trials), stable_sort_order(trials))
          << "n=" << n << " shared_first=" << shared_first;
    }
  }
  // Generated trials with idle events, and the pass that emits the tree
  // (whose frame-collapse and budget branches sort groups whole).
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(c);
  for (const double rate : {0.005, 0.05, 0.3}) {
    NoiseModel noise = NoiseModel::uniform(4, rate, rate * 2, 0.02);
    noise.set_uniform_idle_rate(rate);
    const TrialSet trials = generate_trial_set(c, ctx.layering, noise, 3000, rng);
    const std::vector<std::uint32_t> expected = stable_sort_order(trials);
    EXPECT_EQ(reorder_permutation(trials), expected) << "rate=" << rate;
    for (const bool frames : {false, true}) {
      for (const std::size_t budget : {std::size_t{0}, std::size_t{2}}) {
        ScheduleOptions options;
        options.frame_collapse = frames;
        options.max_states = budget;
        const OrderedTrials ordered = order_trials(ctx, trials, options);
        EXPECT_EQ(ordered.order, expected) << "rate=" << rate << " frames=" << frames;
        EXPECT_TRUE(is_reordered(ordered.trials));
        EXPECT_EQ(ordered.tree.planned_ops,
                  build_exec_tree(ctx, ordered.trials, options).planned_ops);
      }
    }
  }
}

TEST(Order, MergeEqualsStableMergeByJobAndPosition) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.1, 0.0);
  Rng rng(8);
  std::vector<TrialSet> jobs;
  for (const std::size_t n : {300u, 0u, 41u, 300u}) {
    jobs.push_back(reorder_trials(generate_trial_set(c, l, noise, n, rng)));
  }
  jobs.push_back(jobs.front());  // identical trials in two jobs
  std::vector<const TrialSet*> inputs;
  struct Origin {
    std::size_t job;
    std::size_t index;
  };
  std::vector<Origin> origins;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    inputs.push_back(&jobs[j]);
    for (std::size_t i = 0; i < jobs[j].size(); ++i) {
      origins.push_back({j, i});
    }
  }
  std::stable_sort(origins.begin(), origins.end(), [&](const Origin& a, const Origin& b) {
    return trial_order_less(jobs[a.job][a.index], jobs[b.job][b.index]);
  });
  const MergedTrials merged = merge_reordered(inputs);
  ASSERT_EQ(merged.trials.size(), origins.size());
  ASSERT_EQ(merged.trial_jobs.size(), origins.size());
  for (std::size_t m = 0; m < origins.size(); ++m) {
    const TrialView want = jobs[origins[m].job][origins[m].index];
    const TrialView got = merged.trials[m];
    EXPECT_EQ(merged.trial_jobs[m], origins[m].job) << "m=" << m;
    EXPECT_TRUE(std::ranges::equal(got.events, want.events)) << "m=" << m;
    EXPECT_EQ(got.meas_flip_mask, want.meas_flip_mask) << "m=" << m;
  }
}

TEST(Order, ReorderingIncreasesConsecutiveOverlap) {
  // The whole point of the reorder: adjacent trials share longer prefixes.
  Rng rng(6);
  const Circuit c = decompose_to_cx_basis(make_qft(5));
  const Layering l = layer_circuit(c);
  const NoiseModel noise = NoiseModel::uniform(5, 0.01, 0.05, 0.0);
  auto trials = generate_trials(c, l, noise, 2000, rng);
  const double before = mean_consecutive_shared_prefix(TrialSet(trials));
  reorder_trials(trials);
  const double after = mean_consecutive_shared_prefix(TrialSet(trials));
  EXPECT_GT(after, before);
}

TEST(Order, EmptyAndSingleton) {
  std::vector<Trial> empty;
  reorder_trials(empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(is_reordered(TrialSet(empty)));

  std::vector<Trial> one(1);
  one[0].events = {{3, 2, 1}};
  reorder_trials(one);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].events[0] == (ErrorEvent{3, 2, 1}));
  EXPECT_TRUE(is_reordered(TrialSet(one)));
}

TEST(Order, AllErrorFreeTrials) {
  std::vector<Trial> trials(10);
  trials[3].meas_flip_mask = 5;  // masks don't affect ordering
  reorder_trials(trials);
  EXPECT_TRUE(is_reordered(TrialSet(trials)));
  // Stability: the masked trial keeps its position among equals.
  EXPECT_EQ(trials[3].meas_flip_mask, 5u);
}

}  // namespace
}  // namespace rqsim
