#include "sched/backend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/pauli.hpp"
#include "sim/gate_runs.hpp"
#include "sim/kernels.hpp"

namespace rqsim {

// --------------------------------------------------------------------------
// CountBackend

void CountBackend::on_advance(std::size_t depth, layer_index_t from_layer,
                              layer_index_t to_layer) {
  (void)depth;
  ops_ += ctx_.ops_in_layers(from_layer, to_layer);
}

void CountBackend::on_fork(std::size_t depth) {
  (void)depth;
  ++copies_;
  ++live_;
  max_live_ = std::max(max_live_, live_);
}

void CountBackend::on_error(std::size_t depth, const ErrorEvent& event) {
  (void)depth;
  (void)event;
  ops_ += 1;
}

void CountBackend::on_finish(std::size_t depth, trial_index_t trial_index,
                             const TrialView& trial) {
  (void)depth;
  (void)trial_index;
  (void)trial;
  ++finished_;
}

void CountBackend::on_drop(std::size_t depth) {
  (void)depth;
  RQSIM_CHECK(live_ > 1, "CountBackend: drop below the root checkpoint");
  --live_;
}

// --------------------------------------------------------------------------
// State-advancing primitives

void apply_layers(const CircuitContext& ctx, StateVector& state, layer_index_t from,
                  layer_index_t to) {
  // Registers that never block skip building the gate list: this is the
  // hot path of the many-trial 5-qubit workloads.
  if (state.num_qubits() <= kBlockQubits) {
    for (layer_index_t l = from; l < to; ++l) {
      for (gate_index_t g : ctx.layering.layers[l]) {
        apply_gate(state, ctx.circuit.gates()[g]);
      }
    }
    return;
  }
  std::vector<const Gate*> gates;
  gates.reserve(ctx.ops_in_layers(from, to));
  for (layer_index_t l = from; l < to; ++l) {
    for (gate_index_t g : ctx.layering.layers[l]) {
      gates.push_back(&ctx.circuit.gates()[g]);
    }
  }
  apply_gates(state, gates);
}

void apply_error_event(const CircuitContext& ctx, StateVector& state,
                       const ErrorEvent& event) {
  if (is_idle_position(ctx.circuit.num_gates(), event.position)) {
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumSinglePaulis,
                "apply_error_event: bad idle op code");
    apply_pauli(state, static_cast<Pauli>(event.op),
                idle_qubit(ctx.circuit.num_gates(), event.position));
    return;
  }
  const Gate& gate = ctx.circuit.gates()[event.position];
  if (gate.arity() == 1) {
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumSinglePaulis,
                "apply_error_event: bad single-qubit op code");
    apply_pauli(state, static_cast<Pauli>(event.op), gate.qubits[0]);
  } else {
    RQSIM_CHECK(gate.arity() == 2, "apply_error_event: unsupported gate arity");
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumPairPaulis,
                "apply_error_event: bad two-qubit op code");
    apply_pauli_pair(state, pauli_pair_from_index(event.op), gate.qubits[0],
                     gate.qubits[1]);
  }
}

// --------------------------------------------------------------------------
// TraceBackend

TraceBackend::TraceBackend(const CircuitContext& ctx, std::size_t num_trials)
    : ctx_(ctx), traces_(num_trials), trace_set_(num_trials, false) {
  stack_.emplace_back();
}

void TraceBackend::on_advance(std::size_t depth, layer_index_t from_layer,
                              layer_index_t to_layer) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: advance must target the top");
  for (layer_index_t l = from_layer; l < to_layer; ++l) {
    for (gate_index_t g : ctx_.layering.layers[l]) {
      TraceOp op;
      op.gate = g;
      stack_[depth].push_back(op);
    }
  }
}

void TraceBackend::on_fork(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: fork must target the top");
  stack_.push_back(stack_[depth]);
}

void TraceBackend::on_error(std::size_t depth, const ErrorEvent& event) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: error must target the top");
  TraceOp op;
  op.is_error = true;
  op.event = event;
  stack_[depth].push_back(op);
}

void TraceBackend::on_finish(std::size_t depth, trial_index_t trial_index,
                             const TrialView& trial) {
  (void)trial;
  RQSIM_CHECK(trial_index < traces_.size(), "TraceBackend: trial index out of range");
  RQSIM_CHECK(!trace_set_[trial_index], "TraceBackend: trial finished twice");
  traces_[trial_index] = stack_[depth];
  trace_set_[trial_index] = true;
}

void TraceBackend::on_drop(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1 && stack_.size() > 1,
              "TraceBackend: drop must pop the top (non-root) checkpoint");
  stack_.pop_back();
}

std::vector<TraceOp> expected_trace(const CircuitContext& ctx, const TrialView& trial) {
  std::vector<TraceOp> out;
  std::size_t next_event = 0;
  for (layer_index_t l = 0; l < ctx.num_layers(); ++l) {
    for (gate_index_t g : ctx.layering.layers[l]) {
      TraceOp op;
      op.gate = g;
      out.push_back(op);
    }
    while (next_event < trial.events.size() && trial.events[next_event].layer == l) {
      TraceOp op;
      op.is_error = true;
      op.event = trial.events[next_event];
      out.push_back(op);
      ++next_event;
    }
  }
  return out;
}

}  // namespace rqsim
