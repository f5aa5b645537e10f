// Density-matrix simulator.
//
// The paper's Related Work (Section II) contrasts Monte Carlo statevector
// simulation with density-matrix simulation: the density matrix evolves
// the *exact* mixed state through noise channels in a single pass, at the
// cost of 2^(2N) storage. This module provides that substrate for two
// purposes:
//   1. Ground truth — the Monte Carlo pipeline's averaged outcome
//      distribution must converge to the density-matrix distribution
//      (tested in tests/dm_test.cpp), which validates error injection,
//      reordering and caching end to end.
//   2. The memory comparison the paper argues from: one density matrix of
//      N qubits costs as much as 2^N maintained state vectors.
//
// Representation: ρ is stored as a statevector of 2N qubits (row index in
// the low N qubits, column index in the high N qubits). A unitary U on
// qubit q then acts as U on qubit q and conj(U) on qubit q+N, which lets
// this module reuse the fast statevector kernels unchanged.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"
#include "common/types.hpp"
#include "linalg/matrix.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

class DensityMatrix {
 public:
  /// ρ = |0…0⟩⟨0…0| on `num_qubits` qubits (limited to 12 qubits: the
  /// internal statevector has 2N qubits).
  explicit DensityMatrix(unsigned num_qubits);

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return std::size_t{1} << num_qubits_; }

  /// Element ρ(row, col).
  cplx at(std::uint64_t row, std::uint64_t col) const;

  /// tr(ρ) — 1.0 for a valid state.
  double trace() const;

  /// tr(ρ²) — 1.0 iff pure.
  double purity() const;

  /// Apply a unitary gate: ρ -> U ρ U†.
  void apply_gate(const Gate& gate);

  /// Symmetric depolarizing channel on one qubit:
  /// ρ -> (1-p)ρ + (p/3)(XρX + YρY + ZρZ).
  void apply_depolarizing1(qubit_t target, double p);

  /// General biased Pauli channel:
  /// ρ -> (1-px-py-pz)ρ + px·XρX + py·YρY + pz·ZρZ.
  void apply_pauli_channel1(qubit_t target, double px, double py, double pz);

  /// Symmetric two-qubit depolarizing channel:
  /// ρ -> (1-p)ρ + (p/15) Σ_{P≠I⊗I} PρP.
  void apply_depolarizing2(qubit_t a, qubit_t b, double p);

  /// Diagonal of ρ marginalized onto `measured_qubits` (bit k of the
  /// result index = measured_qubits[k]) — the exact outcome distribution.
  std::vector<double> measurement_probabilities(
      const std::vector<qubit_t>& measured_qubits) const;

 private:
  unsigned num_qubits_ = 0;
  StateVector vec_;  // 2N-qubit vectorized ρ
};

/// Exact noisy outcome distribution of a circuit under the same error
/// model the Monte Carlo pipeline samples from: a depolarizing channel
/// after every gate plus classical measurement bit flips. The circuit must
/// be decomposed to 1-/2-qubit gates and have terminal measurements.
std::vector<double> exact_noisy_distribution(const Circuit& circuit,
                                             const NoiseModel& noise);

/// tr(ρP) — the exact mixed-state expectation of a Pauli string.
double expectation(const DensityMatrix& rho, const PauliString& pauli);

/// Apply per-bit classical flip channels to an outcome distribution:
/// flip_rates[k] is the flip probability of classical bit k.
std::vector<double> apply_measurement_flips(std::vector<double> probs,
                                            const std::vector<double>& flip_rates);

}  // namespace rqsim
