// The prefix-caching scheduler.
//
// `schedule_trials` walks a *reordered* trial list and emits the primitive
// operations of the optimized simulation to a visitor:
//
//   on_advance(d, from, to)  — apply the gates of layers [from, to) to the
//                              checkpoint at recursion depth d
//   on_fork(d)               — duplicate checkpoint d into d+1
//   on_error(d, e)           — apply error event e to checkpoint d
//   on_finish(d, i, trial)   — trial i's final state is checkpoint d
//                              (guaranteed advanced through every layer)
//   on_drop(d)               — checkpoint d is dead, release it
//
// Invariant maintained by the walker: checkpoint d holds the state of the
// current group's shared error prefix, advanced error-free through some
// layer frontier that only moves forward. Each recursion level owns exactly
// one checkpoint, so the number of live states equals the recursion depth
// plus one — the paper's MSV bound.
//
// Visitors interpret the stream as pure accounting (CountBackend), per-trial
// operator traces (TraceBackend) or a recorded plan (PlanRecorder); neither
// the walker nor any visitor touches a state vector, which is what lets the
// 40-qubit scalability experiments run without 2^40 amplitudes. Statevector
// execution — sampled runs and exact enumeration alike — runs the same
// schedule as an explicit prefix tree (sched/tree.hpp), which the tree-plan
// verifier pins to this walker's stream op for op.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"
#include "common/types.hpp"
#include "trial/trial.hpp"

namespace rqsim {

/// Precomputed layering and op-count prefix sums for one circuit.
struct CircuitContext {
  explicit CircuitContext(const Circuit& circuit);

  const Circuit& circuit;
  Layering layering;

  /// ops_before_layer[l] = number of gates in layers [0, l);
  /// ops_before_layer[num_layers] = total gate count.
  std::vector<opcount_t> ops_before_layer;

  std::size_t num_layers() const { return layering.num_layers(); }
  opcount_t total_gate_ops() const { return ops_before_layer.back(); }
  opcount_t ops_in_layers(layer_index_t from, layer_index_t to) const;
};

class ScheduleVisitor {
 public:
  virtual ~ScheduleVisitor() = default;
  virtual void on_advance(std::size_t depth, layer_index_t from_layer,
                          layer_index_t to_layer) = 0;
  virtual void on_fork(std::size_t depth) = 0;
  virtual void on_error(std::size_t depth, const ErrorEvent& event) = 0;
  virtual void on_finish(std::size_t depth, trial_index_t trial_index,
                         const TrialView& trial) = 0;
  virtual void on_drop(std::size_t depth) = 0;
};

struct ScheduleOptions {
  /// Cap on concurrently maintained state vectors (the MSV budget).
  /// 0 = unlimited. Minimum meaningful value is 2: one shared advancing
  /// checkpoint plus one scratch state. When a branch would exceed the
  /// budget, its trials are replayed individually from the deepest allowed
  /// checkpoint — correctness is unchanged, computation sharing below the
  /// cap is given up.
  std::size_t max_states = 0;

  /// Pauli-frame subtree collapse (tree builder only — the sequential
  /// walker ignores it). A group of trials whose remaining errors all
  /// propagate to the end of the circuit as pure Pauli frames (Clifford-
  /// only downstream path, X part confined to measured qubits) is not
  /// forked: the trials finish on the parent's buffer with a recorded
  /// frame applied as a basis permutation at sampling time. Bitwise
  /// results are unchanged; requires NoiseModel::all_channels_pauli().
  bool frame_collapse = false;

  /// Observables will be evaluated on the finishing buffers: restrict
  /// collapse to trials whose final frame is Z-only (a pure sign on each
  /// Pauli-string expectation; an X component would permute the
  /// floating-point summation order instead).
  bool frame_observables = false;
};

/// Walk `trials` (which must already be in reorder order) and emit the
/// optimized execution to `visitor`. Throws if the list is not reordered.
void schedule_trials(const CircuitContext& ctx, const TrialSet& trials,
                     ScheduleVisitor& visitor, const ScheduleOptions& options = {});

/// Baseline op count: every trial executes the full circuit plus its own
/// error injections, with nothing shared (paper Section V "Baseline").
opcount_t baseline_op_count(const CircuitContext& ctx, const TrialSet& trials);

/// std::vector<Trial> adapter.
opcount_t baseline_op_count(const CircuitContext& ctx, const std::vector<Trial>& trials);

}  // namespace rqsim
