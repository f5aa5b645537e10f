// Schedule visitors ("backends"): two interpretations of the sequential
// scheduler stream, the independent specification the prefix-tree executor
// is checked against. No visitor touches amplitudes: every statevector
// execution, sampled or enumerated, is sched/tree_exec.hpp.
//
//  - CountBackend: op/MSV accounting only — no amplitudes, so it scales to
//    arbitrary qubit counts (used by the paper's 40-qubit experiments).
//  - TraceBackend: reconstructs the exact operator sequence each trial
//    experienced; the equivalence tests compare it against the trial's
//    definition.
//
// Also the two state-advancing primitives the tree executor applies.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/plan.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

// ---------------------------------------------------------------------------

/// Apply the gates of layers [from, to) to a state (the tree executor's
/// advance), in layer order and each layer's gate order. Registers above
/// kBlockQubits go through the cache-blocked applier (sim/gate_runs.hpp),
/// bitwise identical to the per-gate loop.
void apply_layers(const CircuitContext& ctx, StateVector& state, layer_index_t from,
                  layer_index_t to);

/// Apply one error event (gate-attached Pauli / Pauli pair, or idle Pauli).
void apply_error_event(const CircuitContext& ctx, StateVector& state,
                       const ErrorEvent& event);

// ---------------------------------------------------------------------------

class CountBackend : public ScheduleVisitor {
 public:
  explicit CountBackend(const CircuitContext& ctx) : ctx_(ctx) {}

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const TrialView& trial) override;
  void on_drop(std::size_t depth) override;

  /// Matrix-vector operations performed (gates + injected errors).
  opcount_t ops() const { return ops_; }

  /// Maximum number of concurrently maintained state vectors.
  std::size_t max_live_states() const { return max_live_; }

  /// State-vector copies made (forks) — not counted as ops, reported as a
  /// secondary cost.
  std::uint64_t copies() const { return copies_; }

  std::uint64_t finished_trials() const { return finished_; }

 private:
  const CircuitContext& ctx_;
  opcount_t ops_ = 0;
  std::size_t live_ = 1;  // checkpoint 0 exists from the start
  std::size_t max_live_ = 1;
  std::uint64_t copies_ = 0;
  std::uint64_t finished_ = 0;
};

// ---------------------------------------------------------------------------

/// One semantic operation a trial experienced: either a circuit gate or an
/// injected error event.
struct TraceOp {
  bool is_error = false;
  gate_index_t gate = 0;   // valid when !is_error
  ErrorEvent event;        // valid when is_error

  friend bool operator==(const TraceOp& a, const TraceOp& b) {
    if (a.is_error != b.is_error) {
      return false;
    }
    return a.is_error ? a.event == b.event : a.gate == b.gate;
  }
};

class TraceBackend : public ScheduleVisitor {
 public:
  TraceBackend(const CircuitContext& ctx, std::size_t num_trials);

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const TrialView& trial) override;
  void on_drop(std::size_t depth) override;

  const std::vector<std::vector<TraceOp>>& traces() const { return traces_; }

 private:
  const CircuitContext& ctx_;
  std::vector<std::vector<TraceOp>> stack_;
  std::vector<std::vector<TraceOp>> traces_;
  std::vector<bool> trace_set_;
};

/// The operator sequence a trial is *defined* to experience: layers in
/// order, each layer's gates followed by that layer's error events.
std::vector<TraceOp> expected_trace(const CircuitContext& ctx, const TrialView& trial);

}  // namespace rqsim
