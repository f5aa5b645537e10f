// Full statevector of an n-qubit register.
//
// Amplitude order: basis state |b_{n-1} … b_1 b_0⟩ lives at index
// Σ b_k 2^k (qubit 0 is the least-significant bit).
//
// Copying: a StateVector copy is a 2^n memcpy plus a possible
// page-faulting allocation, so checkpoint copies never use the copy
// constructor directly — they go through StateBufferPool::acquire_copy
// (recycled buffers) or CowState (sim/buffer_pool.hpp), which defers the
// copy until the buffer is first written. Analyzer rule RQS005
// (tools/analyze) enforces this outside sim/buffer_pool.*.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace rqsim {

class StateVector {
 public:
  StateVector() = default;

  /// |0…0⟩ on `num_qubits` qubits.
  explicit StateVector(unsigned num_qubits);

  /// Basis state |index⟩.
  StateVector(unsigned num_qubits, std::uint64_t basis_index);

  /// Adopt an existing amplitude buffer (size must be 2^num_qubits). Used
  /// by the checkpoint buffer pool to recycle allocations.
  static StateVector from_buffer(unsigned num_qubits, std::vector<cplx> buffer);

  /// Move the amplitude buffer out, leaving this state empty (0 qubits).
  std::vector<cplx> take_buffer();

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }

  cplx& operator[](std::size_t i) { return amps_[i]; }
  const cplx& operator[](std::size_t i) const { return amps_[i]; }

  const std::vector<cplx>& amplitudes() const { return amps_; }
  std::vector<cplx>& amplitudes() { return amps_; }

  /// Reset to |0…0⟩.
  void reset();

  /// Σ |amp|² — 1.0 for a normalized state.
  double norm_squared() const;

  /// Probability of measuring basis state `index`.
  double probability(std::uint64_t index) const;

  /// Fidelity |⟨a|b⟩|² with another state of the same size.
  double fidelity(const StateVector& other) const;

  /// Max |a_i - b_i| over all amplitudes.
  double max_abs_diff(const StateVector& other) const;

  /// Exact equality of every amplitude (used by the bitwise-equivalence
  /// proof between baseline and cached execution).
  bool bitwise_equal(const StateVector& other) const;

 private:
  unsigned num_qubits_ = 0;
  std::vector<cplx> amps_;
};

}  // namespace rqsim
