// Schedule-invariant verification ("plan proofs").
//
// The prefix-caching speedup rests on invariants that the scheduler
// maintains *by construction* but that nothing re-checks: the trial list
// must be in reorder order (Algorithm 1's lexicographic order with
// "no-further-error" last), the checkpoint stream must form a valid stack
// discipline (no use-after-drop, no leak), the number of live *materialized*
// checkpoints must stay within the MSV budget (a CoW fork occupies no
// memory until its first write), and the op count implied by the stream
// must telescope exactly against both an independent prediction and the
// baseline. This module makes those invariants checkable before any
// amplitude is touched:
//
//   PlanRecorder  — a ScheduleVisitor that captures the scheduler's op
//                   stream as a flat, allocation-light "plan".
//   PlanVerifier  — a pure pass over (trials, plan) that either produces a
//                   PlanProof (the proof artifacts: witness MSV depth,
//                   telescoped op counts, per-trial coverage) or a precise
//                   diagnostic naming the first violating trial index.
//
// The verifier re-derives every per-trial operator path from the plan
// alone: a trial's proof obligation is that the advances and errors
// accumulated along its checkpoint ancestry equal exactly the full-circuit
// layer sweep interleaved with the trial's own error events. Because the
// check runs on the recorded stream — not on the scheduler's internal
// state — a corrupted schedule cannot vouch for itself.
//
// The one execution entry point (run_noisy_batch, and run_noisy through it)
// runs the tree-plan pass over the merged trial list before touching
// amplitudes when any job sets NoisyRunConfig::verify_plans; the
// `rqsim verify` CLI verb runs it standalone and prints the artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/plan.hpp"

namespace rqsim {

struct ExecTree;  // sched/tree.hpp

enum class PlanOpKind : std::uint8_t {
  kAdvance,  // apply layers [from, to) to checkpoint `depth`
  kFork,     // duplicate checkpoint `depth` into depth + 1
  kError,    // inject `event` into checkpoint `depth`
  kFinish,   // checkpoint `depth` is trial `trial`'s final state
  kDrop,     // checkpoint `depth` is dead
};

/// One primitive operation of a recorded schedule.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kAdvance;
  std::uint32_t depth = 0;
  layer_index_t from = 0;  // kAdvance
  layer_index_t to = 0;    // kAdvance
  ErrorEvent event;        // kError
  trial_index_t trial = 0; // kFinish
};

/// Semantic equality: compares only the fields the op kind makes
/// meaningful (verify_tree_plan's op-for-op stream comparison).
inline bool operator==(const PlanOp& a, const PlanOp& b) {
  if (a.kind != b.kind || a.depth != b.depth) {
    return false;
  }
  switch (a.kind) {
    case PlanOpKind::kAdvance:
      return a.from == b.from && a.to == b.to;
    case PlanOpKind::kError:
      return a.event == b.event;
    case PlanOpKind::kFinish:
      return a.trial == b.trial;
    case PlanOpKind::kFork:
    case PlanOpKind::kDrop:
      return true;
  }
  return false;
}

inline bool operator!=(const PlanOp& a, const PlanOp& b) { return !(a == b); }

/// ScheduleVisitor that records the stream as a flat plan.
class PlanRecorder : public ScheduleVisitor {
 public:
  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const TrialView& trial) override;
  void on_drop(std::size_t depth) override;

  const std::vector<PlanOp>& plan() const { return plan_; }
  std::vector<PlanOp> take_plan() { return std::move(plan_); }

 private:
  std::vector<PlanOp> plan_;
};

inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Outcome of a verification pass: either ok with the proof artifacts, or
/// a violation with a diagnostic locating the first offending trial/op.
struct PlanProof {
  bool ok = true;

  /// Human-readable description of the first violation (empty when ok).
  std::string diagnostic;

  /// First trial whose result the violation would corrupt (kNoIndex when
  /// no trial is affected or the plan never reaches one).
  std::size_t violating_trial = kNoIndex;

  /// Index into the plan stream of the violating op (kNoIndex for
  /// trial-list violations, which precede the stream).
  std::size_t violating_op = kNoIndex;

  // ---- proof artifacts (valid when ok) ----
  std::size_t num_trials = 0;
  std::size_t num_plan_ops = 0;

  /// Op count implied by the plan stream (advances + error injections).
  opcount_t cached_ops = 0;

  /// Independent model prediction of the cached op count; ok implies
  /// cached_ops == predicted_ops.
  opcount_t predicted_ops = 0;

  /// What the baseline (no sharing) would execute; ok implies
  /// cached_ops <= baseline_ops.
  opcount_t baseline_ops = 0;

  /// Witness MSV: the maximum number of live checkpoints, and the plan op
  /// at which that depth is first reached.
  std::size_t max_live_states = 1;
  std::size_t msv_witness_op = kNoIndex;

  /// Witness for the CoW memory bound: the maximum number of live
  /// *materialized* checkpoints — a fork only materializes at its first
  /// write (advance or error), so this is what the MSV budget is checked
  /// against — and the write op at which that maximum is first reached.
  /// For any schedule the sequential walker emits, every fork's next op
  /// writes the child, so max_materialized_states == max_live_states; the
  /// two can differ only for hand-built plans with never-written forks.
  std::size_t max_materialized_states = 1;
  std::size_t materialization_witness_op = kNoIndex;

  /// The budget the plan was checked against (0 = unlimited).
  std::size_t msv_budget = 0;

  std::uint64_t forks = 0;
  std::uint64_t drops = 0;

  /// Checkpoints that were ever written (materializations the CoW executor
  /// would pay as 2^n copies; <= forks + 1 counting the root).
  std::uint64_t materializations = 0;

  // ---- Pauli-frame artifacts (framed trees only; all 0 otherwise) ----

  /// Trials finished by frame collapse, each proved by the numeric
  /// frame-algebra pass (matrix conjugation, independent of the builder's
  /// lookup tables).
  std::uint64_t frame_trials = 0;

  /// Conjugation steps the proven frames cost — integer bookkeeping that
  /// replaced statevector ops, never part of cached_ops.
  std::uint64_t frame_ops = 0;

  /// Matvec ops frame collapse eliminated: the unframed model prediction
  /// minus cached_ops. This is the saving the proof certifies.
  opcount_t frame_saved_ops = 0;
};

/// Pure verification pass over a trial list and a recorded plan.
class PlanVerifier {
 public:
  explicit PlanVerifier(const CircuitContext& ctx,
                        const ScheduleOptions& options = {});

  /// Prove (or refute) all schedule invariants for `plan` against
  /// `trials`. Never throws on violation — inspect PlanProof::ok.
  PlanProof verify(const TrialSet& trials,
                   const std::vector<PlanOp>& plan) const;

  /// Record the scheduler's plan for `trials` (which must already be
  /// reordered) and verify it in one call.
  PlanProof verify_schedule(const TrialSet& trials) const;

  /// Prove the prefix-tree execution plan (sched/tree.hpp) safe AND
  /// equivalent to the sequential scheduler. First every range the flat
  /// tree holds is checked against what it indexes — each subtree_end
  /// after its node and inside its parent's range, each frame range inside
  /// ExecTree::frames, each trial range inside the trial set — and a
  /// malformed one is named by node before anything reads through it.
  /// Then linearize the tree, run the
  /// full invariant pass on the linearization (reorder-order trial visits,
  /// checkpoint stack discipline, MSV bound, exact op-count telescoping),
  /// then require the linearized stream to equal the sequential walker's
  /// stream op for op — which transfers every sequential guarantee to
  /// whatever interleaving the work-stealing executor realizes, since
  /// workers execute exactly the tree's nodes. Finally cross-checks the
  /// tree's own planned counters (planned_ops, planned_forks, peak_demand)
  /// against the proof artifacts.
  ///
  /// Frame-collapsed trees (ExecTree::has_frames) get a *frame-algebra*
  /// pass first: every recorded FrameTrial is re-propagated numerically —
  /// each gate's action on the frame is computed as the matrix conjugation
  /// G·P·G† and matched against a pure Pauli up to a unit phase, entirely
  /// independent of the conjugation tables the builder used — and must
  /// reproduce the recorded masks and op counts, satisfy the purity rules
  /// (X part confined to measured qubits; Z-only under frame_observables),
  /// and never pass a blocking non-Clifford gate. A violation names the
  /// first offending trial. The invariant pass then treats each framed
  /// trial's finish as a *prefix* obligation (only event_depth events
  /// injected; the remainder is carried by the proven frame), the op-count
  /// model mirrors the builder's collapse decisions, and the op-for-op
  /// stream comparison is skipped — a collapsed tree is deliberately
  /// *cheaper* than the sequential stream, which is the saving recorded in
  /// PlanProof::frame_saved_ops.
  PlanProof verify_tree_plan(const TrialSet& trials,
                             const ExecTree& tree) const;

  /// std::vector<Trial> adapter.
  PlanProof verify_tree_plan(const std::vector<Trial>& trials,
                             const ExecTree& tree) const;

 private:
  /// Shared invariant pass. `frame_prefix`, when non-null, maps each trial
  /// index to the injected-event prefix length its finish must carry
  /// (kNoIndex = normal trial, full path required).
  PlanProof verify_impl(const TrialSet& trials,
                        const std::vector<PlanOp>& plan,
                        const std::vector<std::size_t>* frame_prefix) const;

  const CircuitContext& ctx_;
  ScheduleOptions options_;
};

/// Independent model of the reorder+prefix-cache op count: computed from
/// the trial list alone, never from the scheduler or a recorded plan. The
/// verifier (and tests) require the scheduler's actual count to match this
/// prediction exactly. With options.frame_collapse set the model mirrors
/// the tree builder's collapse decisions (collapsed groups cost no forks
/// and no subtree ops), predicting the *framed* tree's planned_ops.
opcount_t predict_cached_ops(const CircuitContext& ctx,
                             const TrialSet& trials,
                             const ScheduleOptions& options = {});

/// Record + verify, throwing rqsim::Error with the diagnostic on any
/// violation. `context` names the caller in the error message.
void verify_schedule_or_throw(const CircuitContext& ctx,
                              const TrialSet& trials,
                              const ScheduleOptions& options,
                              const char* context);

/// verify_tree_plan, throwing rqsim::Error with the diagnostic on any
/// violation. `options` must be the ScheduleOptions the tree was built with.
void verify_tree_plan_or_throw(const CircuitContext& ctx,
                               const TrialSet& trials,
                               const ExecTree& tree,
                               const ScheduleOptions& options,
                               const char* context);

/// Render the proof artifacts (CLI output format).
std::string format_proof(const PlanProof& proof);

}  // namespace rqsim
