// Work-stealing parallel executor for the prefix-tree schedule, built on
// copy-on-write checkpoint forks (sim/buffer_pool.hpp, CowState).
//
// A schedule fork is a refcount bump on the parent's buffer, not a 2^n
// copy: the copy is deferred until some gate actually *writes* a shared
// buffer (a materialization, counted as cow_materializations). Forks whose
// subtree never coexists with a writing peer — the last child of every
// tail-less node gets the parent's buffer *moved*, and the last writer of
// any shared snapshot finds itself sole owner — skip the copy entirely.
// fork_copies still counts schedule forks (== planned_forks at every
// thread count); the materialization deficit against it is the work CoW
// eliminated.
//
// Tasks are subtree *chunks*: a parent advances its buffer to a branch
// frontier once, then hands out maximal same-frontier runs of child
// subtrees — split against a target of planned_ops / (4 × workers) — as
// single steal-able units sharing one CoW snapshot. The tree is stored
// depth-first (sched/tree.hpp), so a chunk is one contiguous node range:
// the subtrees of its siblings tile it. Chunking keeps the
// deques coarse (steals rare, one snapshot per run instead of one eager
// copy per fork); same-frontier grouping is what makes it redundancy-free,
// since one parent advance feeds the whole run. Idle workers steal from
// the *front* of a victim's deque, taking the oldest (largest) chunk.
//
// Zero redundancy: every advance/error of the tree schedule is executed by
// exactly one worker exactly once, so the op count equals the sequential
// cached schedule's op count at every thread count. verify_tree_plan
// (verify/plan_verifier.hpp) proves the schedule-level equality statically;
// the executor's own counters confirm it at run time.
//
// Global MSV accounting (max_states): tokens ration *materialized* buffers
// only — an unmaterialized CoW fork occupies no memory, so it needs no
// token to wait in a deque. With max_states == 0 there is consequently
// nothing to ration: every chunk queues, and inline_fallbacks stays zero.
// With a budget, admission control is a banker-style reservation against
// one shared token pool: a chunk runs *concurrently* only if it can
// reserve one token for its pinned snapshot plus the widest child
// subtree's sequential peak_demand; when the reservation fails the chunk
// runs inline on the parent's thread, inside the parent's own reservation
// (whose slack always covers one child subtree, since a parent's peak is
// 1 + max over children). Inline execution always makes progress, so the
// budget can never deadlock, and the number of live materialized
// statevectors is globally bounded by max_states — the same bound the
// sequential scheduler guarantees, not a per-chunk copy of it.
//
// Determinism: results are bitwise identical for any thread count and any
// interleaving, and the histogram equals the baseline loop's. Outcome sampling draws from
// each trial's private Rng(meas_seed); per-trial outcomes and observable
// values land in disjoint slots and are reduced in trial-index order —
// which is exactly the sequential finish order — on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/pauli_string.hpp"
#include "sched/tree.hpp"
#include "sim/measure.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

/// Receives every trial's final state. Called from worker threads; calls
/// are grouped per finishing buffer: one call covers the contiguous trial
/// range [first_trial, first_trial + count) that finishes on `state`
/// (a branch node's tail, or a single replayed trial). Distinct calls may
/// arrive concurrently from different workers, but never two calls for the
/// same trial — implementations write per-trial slots without locking.
/// `node` identifies the finishing tree node (unique per call sequence);
/// `probs` is the measurement distribution of `state`, null when the
/// circuit measures nothing.
class TreeTrialSink {
 public:
  virtual ~TreeTrialSink() = default;
  virtual void on_finish_group(std::size_t node, std::size_t first_trial,
                               std::size_t count, const StateVector& state,
                               const std::vector<double>* probs) = 0;

  /// Frame-collapsed trials finishing on node's buffer (trees built with
  /// ScheduleOptions::frame_collapse only): each trial's outcome must be
  /// drawn from the *frame-permuted* distribution (sample_outcome_permuted
  /// with the frame's measured-bit flip) and each observable value signed
  /// by the frame's Z mask. `state`/`probs` are shared with the same
  /// node's on_finish_group call.
  virtual void on_finish_frames(std::size_t node,
                                const std::vector<FrameTrial>& frames,
                                const StateVector& state,
                                const std::vector<double>* probs) = 0;
};

struct TreeExecConfig {
  /// Worker threads; 0 or 1 executes on the calling thread.
  std::size_t num_threads = 1;

  /// Global MSV budget (0 = unlimited). Must equal the budget the tree was
  /// built with: the tree's replay lowering guarantees peak_demand <=
  /// max_states, which admission control relies on.
  std::size_t max_states = 0;

  /// Advance through the gate-fusion engine (one FusionCache per worker —
  /// the cache memoizes lazily and is not thread-safe).
  bool fuse_gates = false;
};

/// Execution counters (results flow through the sink).
struct TreeExecStats {
  opcount_t ops = 0;

  /// Schedule forks (CoW refcount bumps or moves), == ExecTree::
  /// planned_forks at every thread count. The 2^n copies actually paid are
  /// cow_materializations — strictly fewer whenever CoW saved anything.
  std::uint64_t fork_copies = 0;
  std::uint64_t cow_materializations = 0;

  /// Peak concurrently live *materialized* statevectors actually observed;
  /// <= max_states whenever a budget is set (checked), and can exceed the
  /// *sequential* MSV only when the budget is unlimited and subtrees run
  /// concurrently.
  std::size_t max_live_states = 1;

  /// Buffer-pool effectiveness across the run. Prewarmed buffers are
  /// paged in on the setup thread before workers start and count as
  /// reuses when acquired, never as allocs.
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t prewarmed = 0;

  /// Scheduling dynamics: multi-child chunk tasks created, successful
  /// steals (a task moved to an idle worker), and MSV-token reservation
  /// failures that fell back to inline execution on the parent's thread
  /// (always 0 when max_states == 0: unmaterialized forks need no token).
  std::uint64_t chunk_tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t inline_fallbacks = 0;

  /// Pauli-frame collapse: trials finished as frames on a shared buffer
  /// (== ExecTree::frame_collapsed_trials) and the conjugation-table
  /// lookups their build-time propagation performed. frame_ops is integer
  /// bookkeeping, never part of `ops`.
  std::uint64_t frame_collapsed_trials = 0;
  std::uint64_t frame_ops = 0;
};

/// Execute `tree` over `trials` with `config.num_threads` workers, feeding
/// every trial's final state to `sink`. Throws (rethrown from workers) on
/// any execution error.
TreeExecStats execute_tree(const CircuitContext& ctx, const ExecTree& tree,
                           const TrialSet& trials, const TreeExecConfig& config,
                           TreeTrialSink& sink);

/// std::vector<Trial> adapter.
TreeExecStats execute_tree(const CircuitContext& ctx, const ExecTree& tree,
                           const std::vector<Trial>& trials,
                           const TreeExecConfig& config, TreeTrialSink& sink);

/// Standard sink: per-trial outcome sampling from Rng(trial.meas_seed),
/// histogram assembly, and per-trial observable evaluation with the final
/// reduction in trial-index order (the sequential schedule's finish order),
/// so the sums do not depend on the thread count.
///
/// One sink also serves a merged trial list of several jobs: trial t
/// belongs to job trial_jobs[t] and evaluates that job's observables, and
/// each job is reduced on its own. Restricted to one job, the merged order
/// is the job's own reordered order when the merge is stable by job and
/// then by position (merge_reordered, sched/order.hpp), so every job
/// reduces exactly as it would alone.
class SampledTrialSink : public TreeTrialSink {
 public:
  /// One job: every trial evaluates `observables` (null = none).
  SampledTrialSink(const CircuitContext& ctx, const TrialSet& trials,
                   const std::vector<PauliString>* observables);

  /// Merged jobs: trial t evaluates job_observables[trial_jobs[t]]. A null
  /// `trial_jobs` puts every trial in job 0.
  SampledTrialSink(const CircuitContext& ctx, const TrialSet& trials,
                   const std::vector<std::size_t>* trial_jobs,
                   const std::vector<const std::vector<PauliString>*>& job_observables);

  /// std::vector<Trial> adapter of the one-job sink. It owns its converted
  /// set, because the sink outlives the call.
  SampledTrialSink(const CircuitContext& ctx, const std::vector<Trial>& trials,
                   const std::vector<PauliString>* observables);

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override;

  void on_finish_frames(std::size_t node, const std::vector<FrameTrial>& frames,
                        const StateVector& state,
                        const std::vector<double>* probs) override;

  /// Reduce job `job`'s per-trial slots into its histogram / observable
  /// sums. Call once per job, after execute_tree returns.
  OutcomeHistogram take_histogram(std::size_t job = 0);
  std::vector<double> take_observable_sums(std::size_t job = 0);

 private:
  struct JobObservables {
    const std::vector<PauliString>* list = nullptr;  // never null
    /// X-support mask (X and Y factors) of each observable: a Z-only frame
    /// flips observable k's sign iff popcount(frame_z & xmask[k]) is odd —
    /// Z P Z† = -P exactly for anticommuting P, so signing the shared
    /// buffer's expectation value is bitwise what the forked state yields.
    std::vector<std::uint64_t> xmask;
  };

  /// Every constructor lands here: the sink reads `*trials`, or `*owned`
  /// when `trials` is null (the std::vector<Trial> adapter).
  SampledTrialSink(const CircuitContext& ctx, std::unique_ptr<const TrialSet> owned,
                   const TrialSet* trials, const std::vector<std::size_t>* trial_jobs,
                   const std::vector<const std::vector<PauliString>*>& job_observables);

  std::size_t job_of(std::size_t trial) const {
    return trial_jobs_ == nullptr ? 0 : (*trial_jobs_)[trial];
  }

  /// Expectation values of `job`'s observables on `state` into `values`,
  /// unless `values` already holds them (`values_job == job`).
  void evaluate(std::size_t job, const StateVector& state, std::size_t& values_job,
                std::vector<double>& values) const;

  const CircuitContext& ctx_;
  std::unique_ptr<const TrialSet> owned_;  // declared before trials_
  const TrialSet& trials_;
  const std::vector<std::size_t>* trial_jobs_;
  std::vector<JobObservables> jobs_;
  bool sampled_ = false;
  std::vector<std::uint64_t> outcomes_;  // per trial, valid iff sampled_
  /// Observable values, flat: trial t's start at t * stride_, where
  /// stride_ is the largest observable count of any job.
  std::size_t stride_ = 0;
  std::vector<double> expectations_;
};

}  // namespace rqsim
