// Static Monte Carlo trial generation (paper Section IV.B, step 1):
// sample every trial's error injections *before* any simulation runs.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "trial/trial.hpp"

namespace rqsim {

/// Sample one trial: walk every gate, injecting a uniformly chosen
/// non-identity Pauli (pair) with the gate's depolarizing probability, and
/// sample measurement bit flips. Events are returned sorted by
/// (layer, position). The circuit must contain only 1- and 2-qubit gates.
Trial generate_trial(const Circuit& circuit, const Layering& layering,
                     const NoiseModel& noise, Rng& rng);

/// Geometric skips over one rate class of `size` positions sharing error
/// rate `rate` in (0, 1): each draw u in [0, 1) skips
/// floor(log1p(-u) / log1p(-rate)) error-free positions.
struct GeometricSkip {
  GeometricSkip(double rate, std::size_t size);

  /// 1 / log1p(-rate).
  double inv_log_keep = 0.0;

  /// A class's first draw u >= u_hi skips the whole class: the caller may
  /// break without evaluating skip(u), which would return >= size for
  /// every such u (see the margin argument in generator.cpp).
  double u_hi = 2.0;

  double skip(double u) const;
};

/// Sample `num_trials` independent trials into a flat TrialSet.
///
/// Implementation note: gates are bucketed into classes of equal error
/// rate and each class is sampled with geometric skips, so the cost per
/// trial is O(#errors + #classes) instead of O(#gates). The distribution
/// is identical to per-gate Bernoulli sampling (the RNG stream differs
/// from repeated generate_trial calls).
TrialSet generate_trial_set(const Circuit& circuit, const Layering& layering,
                            const NoiseModel& noise, std::size_t num_trials, Rng& rng);

/// Assign each trial a private outcome-sampling seed (Trial::meas_seed),
/// drawn from `rng` in trial order. Kept out of generation so the
/// generation stream — and therefore every previously generated trial set —
/// is unchanged; entry points that sample outcomes call this immediately
/// after generation, *before* reordering, so a trial keeps its seed
/// wherever the schedule places it.
void assign_measurement_seeds(TrialSet& trials, Rng& rng);

/// std::vector<Trial> adapters of the two calls above.
std::vector<Trial> generate_trials(const Circuit& circuit, const Layering& layering,
                                   const NoiseModel& noise, std::size_t num_trials,
                                   Rng& rng);
void assign_measurement_seeds(std::vector<Trial>& trials, Rng& rng);

}  // namespace rqsim
