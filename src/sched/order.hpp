// Trial reordering (the paper's Algorithm 1).
//
// Algorithm 1 orders trials by the location of their n-th injected error,
// groups the trials that share it, and recurses into each group with
// n + 1. The result is a lexicographic order over error-event sequences
// with one refinement: a trial that has run out of errors sorts *after*
// any trial with a further error. That refinement is what lets each
// recursion level keep exactly one advancing checkpoint: the error-free
// continuation of a prefix is simulated last, after every branching
// subgroup has consumed the intermediate layer states (paper Section IV.B,
// S1→S2 advance-and-drop).
//
// `reorder_permutation` implements the recursion as written, in a class
// private to order.cpp: at event depth k it stable-sorts a group by
// the dense rank of each trial's k-th event, with a counting sort for
// groups at least as large as the rank range and a comparison sort on
// (rank, generation index) below it. The resulting order is
// std::stable_sort(trial_order_less) index for index. Sorting comes
// first and knows nothing of the prefix tree: `order_trials`
// (sched/tree.hpp) sorts with it, rearranges the set, and then builds the
// tree over the sorted trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trial/trial.hpp"

namespace rqsim {

/// Comparison used by the reorder: lexicographic over events with
/// "exhausted" greater than any event.
bool trial_order_less(const TrialView& a, const TrialView& b);

/// True if the trial sequence is in reorder order.
bool is_reordered(const TrialSet& trials);

/// Algorithm 1: the permutation that puts `trials` in reorder order
/// (result[p] = generation index of the trial at p).
std::vector<std::uint32_t> reorder_permutation(const TrialSet& trials);

/// `trials` rearranged into reorder order.
TrialSet reorder_trials(TrialSet trials);

/// std::vector<Trial> adapter: reorder in place.
void reorder_trials(std::vector<Trial>& trials);

/// Several reordered sets merged into one, stable by job and then by
/// position: restricted to one job, the merged order is the job's own.
struct MergedTrials {
  TrialSet trials;
  std::vector<std::size_t> trial_jobs;  // job of each merged trial
};

/// k-way merge of already reordered sets (by trial_order_less, ties to
/// the lower job, each job in its own order).
MergedTrials merge_reordered(const std::vector<const TrialSet*>& jobs);

}  // namespace rqsim
