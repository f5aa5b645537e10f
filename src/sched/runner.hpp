// High-level public API: one call from circuit + noise model to a noisy
// Monte Carlo simulation result, in any of three execution modes.
//
//   run_noisy_batch — real statevector execution (outcome histograms), for
//                     circuits small enough to hold amplitudes. The cached
//                     mode merges the reordered trials of one or more jobs
//                     into one prefix tree and runs it on the work-stealing
//                     executor (sched/tree_exec.hpp) at every thread count.
//   run_noisy       — its one-job call.
//   analyze_noisy   — accounting only (ops, MSV); scales to any qubit count
//                     because no statevector is ever allocated. This is the
//                     entry point of the paper's scalability experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sched/tree_exec.hpp"
#include "trial/stats.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

/// Compile-time default for NoisyRunConfig::verify_plans: schedules are
/// verified before execution in debug builds, and verification is opt-in
/// in NDEBUG (release) builds.
#ifdef NDEBUG
inline constexpr bool kVerifyPlansDefault = false;
#else
inline constexpr bool kVerifyPlansDefault = true;
#endif

/// Upper bound accepted for trial counts and MSV budgets at every public
/// entry point. Far beyond any realistic run, but small enough that a
/// negative value cast to an unsigned type (e.g. `--trials -5` or a
/// negative JSON number) is always rejected instead of attempting a
/// ~2^64-trial allocation.
inline constexpr std::size_t kMaxTrialCount = std::size_t{1} << 40;
inline constexpr std::size_t kMaxStatesBudget = std::size_t{1} << 40;

/// Upper bound accepted for NoisyRunConfig::num_threads at every entry
/// point (run_noisy, analyze_noisy, the CLI and service jobs): each cached
/// run starts up to this many executor threads.
inline constexpr std::size_t kMaxThreadCount = 1024;

enum class ExecutionMode {
  kBaseline,          // every trial from scratch (paper's baseline)
  kCachedReordered,   // the paper's optimization: reorder + prefix caching
  kCachedUnordered,   // ablation: prefix caching without the reorder
};

struct NoisyRunConfig {
  std::size_t num_trials = 1024;
  std::uint64_t seed = 1;
  ExecutionMode mode = ExecutionMode::kCachedReordered;

  /// MSV budget for kCachedReordered (0 = unlimited, else >= 2). Branches
  /// that would exceed the budget are replayed trial-by-trial, trading
  /// computation for memory; results are unchanged.
  std::size_t max_states = 0;

  /// Run gate applications through the fusion engine (circuit/fusion.hpp):
  /// adjacent single-qubit gates collapse into one Mat2 and fold into
  /// neighboring two-qubit Mat4s, shrinking the kernel count each trial
  /// replays. Results are epsilon-equivalent to the unfused kernels (the
  /// default stays off to preserve the bitwise baseline/cached proof).
  bool fuse_gates = false;

  /// Pauli-string observables to estimate (statevector modes only):
  /// result.observable_means[k] = mean over trials of ⟨P_k⟩.
  std::vector<PauliString> observables;

  /// Worker threads of the cached run's prefix-tree executor; 0 or 1 runs
  /// on the calling thread. Results are bitwise identical at every count.
  /// kBaseline runs on the calling thread and rejects values above 1.
  std::size_t num_threads = 1;

  /// Pauli-frame subtree collapse (cached runs, any thread count). Groups
  /// of trials whose injected errors propagate to the end of the circuit
  /// as pure Pauli frames (Clifford-only downstream path) never fork a
  /// statevector: they finish on their node's shared buffer, the frame
  /// applied at sampling time as an outcome-bit permutation (and a sign on
  /// Z-only observables). Histograms and observable means stay bitwise
  /// identical to the uncollapsed schedule; matvec ops drop. Requires an
  /// all-Pauli noise model and is skipped under fuse_gates (fused segments
  /// hide the per-gate Clifford structure).
  bool frame_collapse = false;

  /// Statically verify the reorder schedule before executing it (cached
  /// modes): lexicographic trial order, checkpoint stack discipline, the
  /// MSV bound, exact op-count telescoping, and for run_noisy the prefix
  /// tree's op-for-op equality with that schedule (verify/plan_verifier.hpp).
  /// Throws rqsim::Error with the proof diagnostic on any violation.
  /// Defaults on in debug builds, off in release (kVerifyPlansDefault).
  bool verify_plans = kVerifyPlansDefault;
};

/// Shared entry-point validation of the run limits: rejects max_states == 1
/// (the budget needs one shared checkpoint plus one scratch state; 0 stays
/// the documented "unlimited" sentinel) and trial counts / budgets / thread
/// counts beyond kMaxTrialCount / kMaxStatesBudget / kMaxThreadCount
/// (overflowed or negative inputs). Runs before any trial is generated or
/// any thread starts. `context` names the caller in the error message.
void validate_run_limits(const NoisyRunConfig& config, const char* context);

/// The merge rule: whether jobs of `a` and `b` on the same circuit and noise
/// model may share one prefix tree (run_noisy_batch, and the service's
/// batch_compatible). Only cached-reordered runs merge, and they must match
/// in max_states and frame_collapse. Fused runs never merge: a fused
/// trial's last bits depend on the tree it runs in, so a merge would change
/// its results. Seeds, trial counts, observables, thread counts and
/// verify_plans vary freely.
bool configs_mergeable(const NoisyRunConfig& a, const NoisyRunConfig& b);

/// Runtime-measured execution summary. Every field comes from the run's own
/// counts, never from a process-global counter delta, so runs that overlap
/// in one process (service workers) each report their own numbers.
struct TelemetrySummary {
  /// True for every executed statevector run (run_noisy_batch); false for
  /// analyze_noisy, which executes nothing.
  bool measured = false;

  /// Matrix-vector ops this run executed: NoisyRunResult::ops (a merged
  /// job's attributed share). The process-global "sim.matvec_ops" counter
  /// accumulates the same ops for stats/--prom.
  opcount_t measured_ops = 0;

  /// baseline_ops - ops: work the prefix cache eliminated.
  opcount_t ops_saved_vs_baseline = 0;

  /// ops_saved_vs_baseline / baseline_ops — the fraction of baseline work
  /// served from cached prefixes (1 - normalized_computation).
  double prefix_cache_hit_ratio = 0.0;

  /// Wallclock of the execution phase (trial generation + scheduling +
  /// simulation), telemetry clock; a merged job reports its batch's.
  double wall_ms = 0.0;

  /// Tree-executor scheduling dynamics (cached runs; zero elsewhere).
  std::uint64_t steals = 0;
  std::uint64_t inline_fallbacks = 0;

  /// Copy-on-write checkpoint traffic (cached runs): 2^n copies
  /// actually materialized by first-writes to shared buffers. The deficit
  /// against NoisyRunResult::fork_copies is the copies CoW eliminated.
  std::uint64_t cow_materializations = 0;

  /// Checkpoint buffer-pool effectiveness for this run's pool. Prewarmed
  /// buffers are paged in before the workers start and surface as reuses,
  /// never allocs.
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_prewarmed = 0;

  /// Peak concurrently live statevectors actually observed at run time.
  std::size_t peak_live_states = 0;

  /// Pauli-frame collapse (cached runs with frame_collapse):
  /// trials finished as tracked frames on a shared buffer instead of
  /// forked statevectors, and the conjugation-table lookups their
  /// propagation cost (integer bookkeeping, never matvec ops).
  std::uint64_t frame_collapsed_trials = 0;
  std::uint64_t frame_ops = 0;
};

struct NoisyRunResult {
  /// Sampled outcome histogram (empty for analyze_noisy or unmeasured circuits).
  OutcomeHistogram histogram;

  /// Matrix-vector operations actually performed.
  opcount_t ops = 0;

  /// What the baseline would have performed on the same trial set.
  opcount_t baseline_ops = 0;

  /// ops / baseline_ops — the paper's "normalized computation".
  double normalized_computation = 1.0;

  /// Maximum concurrently maintained state vectors (the paper's MSV).
  /// For cached runs this is the schedule's sequential MSV
  /// (tree peak demand) — the deterministic bound admission control
  /// enforces — not the timing-dependent transient peak.
  std::size_t max_live_states = 1;

  /// Checkpoint copies made at branch points (the schedule's only
  /// duplicated work; not matrix-vector ops).
  std::uint64_t fork_copies = 0;

  /// Statistics of the generated trial set.
  TrialSetStats trial_stats;

  /// Noisy expectation value of each requested observable.
  std::vector<double> observable_means;

  /// Runtime-measured counters for this run (see TelemetrySummary).
  TelemetrySummary telemetry;
};

/// Result of run_noisy_batch.
struct NoisyBatchResult {
  /// One result per config, in input order. `ops` is the job's attributed
  /// share of batch_ops; histograms and observable means are bitwise those
  /// of a standalone run_noisy of the same config.
  std::vector<NoisyRunResult> per_job;

  /// Each job's standalone cost: its own prefix tree's planned_ops, frame
  /// collapse included (== its run_noisy ops).
  std::vector<opcount_t> solo_ops;

  /// Ops the merged tree executed; below the sum of solo_ops whenever jobs
  /// share an error prefix.
  opcount_t batch_ops = 0;
};

/// Statevector execution of one or more jobs on one circuit and noise
/// model. The circuit must be decomposed to 1-/2-qubit gates and small
/// enough for explicit amplitudes (<= 30 qubits).
///
/// kCachedReordered generates, seeds and reorders each job's trials exactly
/// as a standalone run would, merges them stably (by job, then by position
/// in the job's reordered list), builds one prefix tree, proves it when any
/// config sets verify_plans, and executes it with frame collapse on the
/// largest num_threads any config asks for. Every error prefix shared
/// across jobs is simulated once (the tree reuse of TQSim, PAPERS.md).
/// Jobs may differ in seed, num_trials, observables, num_threads and
/// verify_plans; more than one config must pass configs_mergeable (so none
/// is fused). The merged ops are attributed to jobs in proportion to their
/// solo_ops, telescoped so the shares sum exactly to batch_ops.
///
/// With unfused kernels each job's histogram and observable means are
/// bitwise identical at every thread count, to a standalone run and to the
/// kBaseline histogram of the same seed: sampling draws from each trial's
/// private measurement seed, and the stable merge keeps each job's trials
/// in its standalone order. kBaseline takes exactly one config and rejects
/// num_threads > 1. Throws rqsim::Error on invalid or mismatched configs.
NoisyBatchResult run_noisy_batch(const Circuit& circuit, const NoiseModel& noise,
                                 const std::vector<const NoisyRunConfig*>& configs);

/// One-job run_noisy_batch.
NoisyRunResult run_noisy(const Circuit& circuit, const NoiseModel& noise,
                         const NoisyRunConfig& config);

/// The proof of the prefix tree a cached run_noisy of `config` executes:
/// the same trial generation, ordering pass and tree options, proved by
/// PlanVerifier::verify_tree_plan without executing anything (the
/// `rqsim verify` verb). Never throws on a failed proof.
PlanProof prove_noisy(const Circuit& circuit, const NoiseModel& noise,
                      const NoisyRunConfig& config);

/// Accounting-only execution (no amplitudes). Valid for any qubit count.
/// Throws on frame_collapse: the count is the unframed schedule's, and
/// prove_noisy is what proves a framed tree's count.
NoisyRunResult analyze_noisy(const Circuit& circuit, const NoiseModel& noise,
                             const NoisyRunConfig& config);

}  // namespace rqsim
