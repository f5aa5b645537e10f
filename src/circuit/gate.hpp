// Gate set of the circuit IR.
//
// The IR is intentionally small: the standard single-qubit gates and
// rotations, the two-qubit entanglers used by the benchmarks (CX, CZ, CP,
// SWAP), and the Toffoli (CCX). Convention for two-qubit matrices: the
// 4x4 row/column index is (bit(qubits[0]) << 1) | bit(qubits[1]), i.e. the
// first listed operand is the high-order bit (the control for CX/CZ/CP).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace rqsim {

enum class GateKind : std::uint8_t {
  X,
  Y,
  Z,
  H,
  S,
  Sdg,
  T,
  Tdg,
  RX,
  RY,
  RZ,
  P,   // phase gate diag(1, e^{i λ})
  U2,  // u2(φ, λ)
  U3,  // u3(θ, φ, λ) — general single-qubit
  CX,
  CZ,
  CP,  // controlled phase
  SWAP,
  CCX,
};

/// Number of qubit operands for a gate kind (1, 2 or 3).
int gate_arity(GateKind kind);

/// Number of real parameters for a gate kind (0..3).
int gate_num_params(GateKind kind);

/// Lower-case mnemonic as used in OpenQASM ("cx", "u3", ...).
std::string gate_name(GateKind kind);

/// Symplectic conjugation rule of a Clifford gate: how G maps each Pauli
/// P to G·P·G† up to a global ±1/±i phase (the phase never survives into
/// |amplitude|² or an expectation value, so frames drop it). Paulis are
/// the 2-bit (x | z << 1) code per operand: I=0, X=1, Z=2, Y=3.
///
/// `one` is the arity-1 map over that 2-bit code. `two` maps the 4-bit
/// code (bits 0-1 = qubits[0]'s Pauli, bits 2-3 = qubits[1]'s) for the
/// two-qubit Cliffords, where a Pauli on one operand may spread to both
/// (CX: X on the control becomes X⊗X).
struct PauliConjugation {
  std::array<std::uint8_t, 4> one{};
  std::array<std::uint8_t, 16> two{};
};

/// True for the Clifford kinds: X, Y, Z, H, S, Sdg, CX, CZ, SWAP.
/// Parameterized kinds (RZ, P, ...) are never classified Clifford, even at
/// angles where their unitary happens to be one — classification must not
/// depend on floating-point parameter values.
bool gate_kind_is_clifford(GateKind kind);

/// Conjugation table for a Clifford kind; RQSIM_CHECK-fails otherwise.
const PauliConjugation& pauli_conjugation_table(GateKind kind);

/// A gate instance: kind + operands + parameters.
struct Gate {
  GateKind kind = GateKind::X;
  std::array<qubit_t, 3> qubits{};
  std::array<double, 3> params{};

  /// Cached at construction by the factories (gate_kind_is_clifford /
  /// pauli_conjugation_table are table lookups, but the hot frame-
  /// propagation loop in sched/ asks per gate per trial — caching here
  /// keeps that loop branch-and-load only).
  bool clifford = false;
  const PauliConjugation* conj = nullptr;  // non-null iff clifford

  int arity() const { return gate_arity(kind); }
  bool is_clifford() const { return clifford; }
  const PauliConjugation* pauli_conjugation() const { return conj; }

  static Gate make1(GateKind kind, qubit_t q, double p0 = 0.0, double p1 = 0.0,
                    double p2 = 0.0);
  static Gate make2(GateKind kind, qubit_t a, qubit_t b, double p0 = 0.0);
  static Gate make3(GateKind kind, qubit_t a, qubit_t b, qubit_t c);
};

/// 2x2 matrix of a single-qubit gate (requires arity 1).
Mat2 gate_matrix1(const Gate& gate);

/// 4x4 matrix of a two-qubit gate (requires arity 2), in the operand-order
/// convention described at the top of this header.
Mat4 gate_matrix2(const Gate& gate);

/// True for gates whose matrix is diagonal (Z, S, Sdg, T, Tdg, RZ, P, CZ, CP).
bool gate_is_diagonal(GateKind kind);

}  // namespace rqsim
