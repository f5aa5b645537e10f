// Truncated exact enumeration — a deterministic alternative to Monte Carlo
// sampling that reuses the same reorder + prefix-caching machinery.
//
// With per-gate error probability ε, a trial has k errors with probability
// ~ Binomial(#positions, ε): at NISQ rates almost all probability mass sits
// at k ≤ 2-3. Instead of sampling trials, enumerate *every* error
// configuration with at most `max_errors` errors together with its exact
// probability, order the configurations with Algorithm 1 (they sort into a
// perfect sharing order), execute them on the prefix tree with the same
// executor every sampled run uses (sched/tree_exec.hpp), and accumulate the
// exact outcome distribution weighted by configuration probability. The residual
// mass of the truncated tail bounds the result's total-variation error:
//     TVD(truncated/mass, exact) <= (1 - mass).
//
// This realizes the paper's observation that trials sharing errors share
// computation, in the limit where the "trial list" is the full support of
// the error distribution rather than a sample of it.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "noise/noise_model.hpp"
#include "trial/trial.hpp"

namespace rqsim {

struct WeightedTrialSet {
  /// All configurations with <= max_errors errors, in reorder order (flip
  /// masks and measurement seeds are 0).
  TrialSet trials;

  /// probability[i] = exact probability of configuration i.
  std::vector<double> probabilities;

  /// Total probability mass covered (sum of `probabilities`).
  double covered_mass = 0.0;
};

/// Enumerate every gate-error configuration with at most `max_errors`
/// injected errors (idle noise supported; measurement flips are handled
/// analytically downstream). Enumeration size grows as
/// C(#positions, k)·ops^k — intended for k <= 3 on NISQ-sized circuits;
/// throws if the configuration count would exceed `max_configs`.
WeightedTrialSet enumerate_error_configurations(const Circuit& circuit,
                                                const NoiseModel& noise,
                                                std::size_t max_errors,
                                                std::size_t max_configs = 2000000);

struct TruncatedDistribution {
  /// Outcome distribution over measured bits, normalized to covered_mass
  /// (divide by covered_mass — or compare against exact·mass — as needed).
  std::vector<double> probabilities;

  double covered_mass = 0.0;
  opcount_t ops = 0;
  opcount_t baseline_ops = 0;  // unshared cost of the same configuration set
  std::size_t max_live_states = 0;
  std::size_t num_configurations = 0;
};

/// Exact truncated outcome distribution via the prefix-tree executor at one
/// thread, including the analytic measurement-flip channel. Statevector
/// execution: circuit must fit in dense amplitudes.
TruncatedDistribution truncated_exact_distribution(const Circuit& circuit,
                                                   const NoiseModel& noise,
                                                   std::size_t max_errors);

}  // namespace rqsim
