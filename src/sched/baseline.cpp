#include "sched/baseline.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/backend.hpp"
#include "sim/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

namespace {

// Same logical metric as the tree executor (interned by name), so baseline
// runs contribute to the one runtime op total.
telemetry::Counter g_matvec_ops("sim.matvec_ops");

// Fused variant: advance through the error-free layer segments between
// consecutive error positions with fused programs.
StateVector simulate_trial_fused(const CircuitContext& ctx, const TrialView& trial,
                                 FusionCache& fusion) {
  StateVector state(ctx.circuit.num_qubits());
  const layer_index_t num_layers = static_cast<layer_index_t>(ctx.num_layers());
  layer_index_t from = 0;
  std::size_t next_event = 0;
  while (next_event < trial.events.size()) {
    const layer_index_t l = trial.events[next_event].layer;
    RQSIM_CHECK(l < num_layers, "simulate_trial: event beyond the last layer");
    apply_fused(state, fusion.segment(from, l + 1));
    from = l + 1;
    while (next_event < trial.events.size() && trial.events[next_event].layer == l) {
      apply_error_event(ctx, state, trial.events[next_event]);
      ++next_event;
    }
  }
  if (from < num_layers) {
    apply_fused(state, fusion.segment(from, num_layers));
  }
  return state;
}

}  // namespace

StateVector simulate_trial(const CircuitContext& ctx, const TrialView& trial,
                           FusionCache* fusion) {
  if (fusion != nullptr) {
    return simulate_trial_fused(ctx, trial, *fusion);
  }
  StateVector state(ctx.circuit.num_qubits());
  std::size_t next_event = 0;
  for (layer_index_t l = 0; l < ctx.num_layers(); ++l) {
    for (gate_index_t g : ctx.layering.layers[l]) {
      apply_gate(state, ctx.circuit.gates()[g]);
    }
    while (next_event < trial.events.size() && trial.events[next_event].layer == l) {
      apply_error_event(ctx, state, trial.events[next_event]);
      ++next_event;
    }
  }
  RQSIM_CHECK(next_event == trial.events.size(),
              "simulate_trial: event beyond the last layer");
  return state;
}

SvRunResult baseline_simulate(const CircuitContext& ctx, const TrialSet& trials,
                              const std::vector<PauliString>* observables,
                              bool fuse_gates) {
  SvRunResult result;
  result.max_live_states = 1;
  if (observables != nullptr) {
    result.observable_sums.assign(observables->size(), 0.0);
  }
  FusionCache fusion(ctx.circuit, ctx.layering);
  for (const TrialView trial : trials) {
    const StateVector state = simulate_trial(ctx, trial, fuse_gates ? &fusion : nullptr);
    const opcount_t trial_ops =
        ctx.total_gate_ops() + static_cast<opcount_t>(trial.num_errors());
    result.ops += trial_ops;
    g_matvec_ops.add(trial_ops);
    if (!ctx.circuit.measured_qubits().empty()) {
      const auto probs = measurement_probabilities(state, ctx.circuit.measured_qubits());
      Rng trial_rng(trial.meas_seed);
      ++result.histogram[sample_outcome(probs, trial_rng) ^ trial.meas_flip_mask];
    }
    if (observables != nullptr) {
      for (std::size_t k = 0; k < observables->size(); ++k) {
        result.observable_sums[k] += expectation(state, (*observables)[k]);
      }
    }
  }
  return result;
}

}  // namespace rqsim
