// Terminal measurement: sampling classical outcomes from a final state.
//
// The noisy-simulation pipeline measures once at the end of a trial, so
// sampling never collapses the state — many trials can share one final
// state and draw independent outcomes from its distribution.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

/// Marginal probability distribution over a subset of qubits.
/// Index i of the result encodes measured_qubits[k] at bit k.
std::vector<double> measurement_probabilities(const StateVector& state,
                                              const std::vector<qubit_t>& measured_qubits);

/// Sample one outcome (bit k <- measured_qubits[k]) from a distribution
/// returned by measurement_probabilities.
std::uint64_t sample_outcome(const std::vector<double>& probs, Rng& rng);

/// Sample from the permuted distribution probs'[i] = probs[i ^ flip]
/// without materializing it: the scan visits outcome indices in the same
/// ascending order sample_outcome would on the permuted vector, consuming
/// the Rng identically — so a Pauli-frame-collapsed trial draws the
/// bitwise-identical outcome its own forked statevector would have drawn.
/// `flip` is the frame's measured-bit flip mask (trial/frame.hpp,
/// frame_outcome_flip) and must be < probs.size().
std::uint64_t sample_outcome_permuted(const std::vector<double>& probs,
                                      std::uint64_t flip, Rng& rng);

/// Histogram of sampled outcomes; key encodes bits as in sample_outcome.
using OutcomeHistogram = std::map<std::uint64_t, std::uint64_t>;

/// Total-variation distance between two histograms (normalized by counts).
double total_variation_distance(const OutcomeHistogram& a, const OutcomeHistogram& b);

}  // namespace rqsim
