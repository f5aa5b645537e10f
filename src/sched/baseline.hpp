// Baseline Monte Carlo execution (paper Section V "Baseline"): every trial
// is simulated from scratch in its generated order; nothing is shared and
// no intermediate state is kept.
//
// Execution order within a trial is layer-by-layer with the trial's error
// events applied at each layer boundary — the same semantic order the
// cached executor realizes, so final states agree bitwise.
#pragma once

#include <vector>

#include "circuit/fusion.hpp"
#include "obs/pauli_string.hpp"
#include "sched/plan.hpp"
#include "sim/measure.hpp"
#include "sim/statevector.hpp"
#include "trial/trial.hpp"

namespace rqsim {

/// Simulate one trial from |0…0⟩; returns the pre-measurement final state.
/// With `fusion`, the error-free layer segments between the trial's error
/// events run through the gate-fusion engine (epsilon-equivalent).
StateVector simulate_trial(const CircuitContext& ctx, const TrialView& trial,
                           FusionCache* fusion = nullptr);

/// Result of a baseline run.
struct SvRunResult {
  OutcomeHistogram histogram;
  opcount_t ops = 0;
  std::size_t max_live_states = 0;

  /// Σ over trials of ⟨ψ_trial|P_k|ψ_trial⟩, one entry per requested
  /// observable (divide by the trial count for the noisy expectation).
  std::vector<double> observable_sums;
};

/// Full baseline run: per-trial simulation, outcome sampling, histogram.
/// Each trial samples from Rng(trial.meas_seed) (trial/generator.hpp:
/// assign_measurement_seeds), so the histogram is bitwise comparable to any
/// cached run of the same trials. `observables` (optional, borrowed) are
/// evaluated on every trial's final state and accumulated into
/// observable_sums in trial order.
SvRunResult baseline_simulate(const CircuitContext& ctx, const TrialSet& trials,
                              const std::vector<PauliString>* observables = nullptr,
                              bool fuse_gates = false);

}  // namespace rqsim
