// Cross-job batch planner: one merged prefix-cache schedule for several
// compatible jobs.
//
// The paper's reorder + prefix-cache optimization shares computation
// *within* one trial set. The service sits above single runs, so it can
// push the reuse boundary further (the tree-reuse idea of TQSim,
// arXiv:2203.13892): queued jobs with identical (circuit, noise model,
// mode, MSV budget, fusion) — but arbitrary seeds, trial counts and
// observables — are merged into one trial list, re-sorted into a single
// reorder order, and executed by one scheduler walk. Every shared error
// prefix is then advanced once for the whole batch instead of once per
// job; in particular the error-free full-circuit pass, which dominates at
// realistic error rates, is paid exactly once.
//
// Execution rides on the prefix-tree executor (sched/tree_exec.hpp): the
// merged trial list becomes one trie, run on one worker with zero redundant
// prefix work. Only single-threaded, unframed jobs are batch-compatible
// (service/job.hpp); the others run alone through run_noisy.
//
// Bitwise equivalence guarantee (unfused kernels): each job's histogram and
// observable means are identical to a standalone `run_noisy` with the same
// config. This holds because
//   1. each job's trials are generated from its own Rng(seed) and given
//      per-trial measurement seeds at exactly run_noisy's stream
//      positions, then reordered with the same sort before merging;
//   2. the merge is stable per job (ties broken by job then by position in
//      the job's own reordered list), so the merged order restricted to
//      one job is the job's standalone order — the order its observable
//      sums are reduced in;
//   3. a trial's final checkpoint sees the same operator sequence in both
//      schedules, and outcome sampling draws from the trial's private
//      Rng(meas_seed), independent of finish order and thread
//      interleaving.
// With fuse_gates the merged schedule fuses different layer segments than
// a standalone run, so results are epsilon-equivalent rather than bitwise.
//
// Attribution: the merged schedule's combined op count is attributed back
// proportionally to each job's solo cost (what its own reorder+cache
// schedule would have executed), so per-job `ops` sum exactly to the batch
// total and normalized computation stays comparable across batch sizes.
#pragma once

#include <cstddef>
#include <vector>

#include "service/job.hpp"

namespace rqsim {

/// Outcome of executing a batch of >= 1 compatible jobs in one schedule.
struct BatchExecution {
  /// One full NoisyRunResult per input job (input order), with `ops` set to
  /// the job's attributed share of `batch_ops`.
  std::vector<NoisyRunResult> per_job;

  /// Each job's standalone reorder+cache op count (accounting walk).
  std::vector<opcount_t> solo_ops;

  /// Combined op count of the merged schedule; strictly less than the sum
  /// of solo_ops whenever any error prefix is shared across jobs.
  opcount_t batch_ops = 0;
};

/// Execute `jobs` (all mutually batch_compatible; see service/job.hpp) as
/// one merged prefix-tree schedule. A single job degenerates to the exact
/// standalone run_noisy schedule. Per-job results are completed by
/// run_noisy's own fill (fill_tree_result). Throws rqsim::Error on invalid
/// specs.
BatchExecution execute_batch(const std::vector<const JobSpec*>& jobs);

}  // namespace rqsim
