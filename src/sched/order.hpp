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
// TrialOrderer implements the recursion as written: at event depth k it
// stable-sorts a group by the dense rank of each trial's k-th event, with
// a counting sort for groups at least as large as the rank range and a
// comparison sort on (rank, generation index) below it. The tree builder
// (sched/tree.hpp) drives the same recursion and emits one prefix-tree
// node per group as it goes; `reorder_trials` runs it without a tree. The
// resulting order is std::stable_sort(trial_order_less) index for index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trial/trial.hpp"

namespace rqsim {

/// Comparison used by the reorder: lexicographic over events with
/// "exhausted" greater than any event.
bool trial_order_less(const TrialView& a, const TrialView& b);

/// True if the trial sequence is in reorder order.
bool is_reordered(const TrialSet& trials);

/// The stable bucket recursion of Algorithm 1 over a permutation of a
/// trial set. Positions index the current order. Each position carries its
/// trial's generation index, event range and the group key of the depth
/// last sorted (or loaded) there, so the recursion reads the set itself
/// only through a per-event rank array.
class TrialOrderer {
 public:
  /// Starts from the identity order. `trials` must outlive the orderer.
  explicit TrialOrderer(const TrialSet& trials);

  std::size_t size() const { return order_.size(); }

  /// The events of the trial at position p.
  std::span<const ErrorEvent> events(std::size_t p) const {
    return trials_.all_events().subspan(first_[p], count_[p]);
  }

  /// Group key of position p at the depth last sorted or loaded over it:
  /// equal keys mean equal events at that depth, and exhausted() means the
  /// trial has no event there.
  std::uint32_t key(std::size_t p) const { return keys_[p]; }
  std::uint32_t exhausted() const { return exhausted_; }

  /// Stable-sort positions [begin, end) by each trial's k-th event, trials
  /// without a k-th event last, and load their keys. The range must be a
  /// group of the recursion: its trials share their first k events.
  void sort_level(std::size_t begin, std::size_t end, std::size_t k);

  /// Load the depth-k keys of [begin, end) without sorting (the range is
  /// already in reorder order).
  void load_keys(std::size_t begin, std::size_t end, std::size_t k);

  /// Full reorder of the group [begin, end): sort_level at depth k, then
  /// recursively within every subgroup that shares its k-th event.
  void sort_from(std::size_t begin, std::size_t end, std::size_t k);

  /// The generation index of the trial at each position (ends the
  /// orderer's use).
  std::vector<std::uint32_t> take_order() { return std::move(order_); }

 private:
  /// Event ranks: the index of (layer, position) among the set's distinct
  /// pairs in layer-major order, times 16, plus op. Built on first use.
  void build_ranks();

  std::uint32_t rank_key(std::size_t p, std::size_t k) const {
    return k < count_[p] ? rank_[first_[p] + k] : exhausted_;
  }

  /// Move the records of [begin, end) so that local index i lands at
  /// begin + dest[i].
  void permute(std::size_t begin, std::size_t end, const std::uint32_t* dest);

  const TrialSet& trials_;
  // Per position:
  std::vector<std::uint32_t> order_;  // generation index
  std::vector<std::uint32_t> first_;  // first event in the set
  std::vector<std::uint32_t> count_;  // number of events
  std::vector<std::uint32_t> keys_;   // group key (see key())

  std::vector<std::uint32_t> rank_;  // per event of the set
  std::uint32_t exhausted_ = 0;      // the key past every rank
  bool ranked_ = false;

  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> dest_;
  std::vector<std::uint32_t> moved_;
  std::vector<std::uint64_t> pairs_;
};

/// Algorithm 1 without a tree: the permutation that puts `trials` in
/// reorder order (result[p] = generation index of the trial at p).
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
