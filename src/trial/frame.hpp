// Pauli frames: tracked error operators in the symplectic (x, z) mask
// representation.
//
// An injected error is always a Pauli (noise/noise_model.hpp). Instead of
// forking a statevector for a trial whose remaining path is Clifford-only,
// the scheduler can keep simulating the *error-free* state and carry the
// error as a frame F with state = F·|ψ⟩ (up to a global ±1/±i phase, which
// cancels in |amplitude|² and in expectation magnitudes): each Clifford
// gate G rewrites the frame to G·F·G† by a 4- or 16-entry table lookup
// (circuit/gate.hpp, PauliConjugation), and measurement applies the frame
// as a basis permutation of the shared probability vector plus a sign on
// Z-only observables. The whole subtree of such trials collapses into
// integer bookkeeping — no matvec ops, no buffer.
//
// Frames commute past gates they don't have to transform through:
//  - any gate whose qubit support is disjoint from the frame's,
//  - diagonal gates (T, Tdg, P, RZ, CP) when the frame is Z-only on the
//    gate's qubits (diagonal matrices commute exactly).
// A non-Clifford gate that fails both tests *blocks* the frame: the trial
// cannot be collapsed from that point and must keep its own statevector.
//
// The masks are per-qubit bit pairs over at most 63 qubits: bit q of `x`
// (`z`) set means the frame applies X (Z) on qubit q; both set means Y.
// All frame algebra is exact integer arithmetic — there is no float in
// this header, which is what makes collapsed trials bitwise-reproducible.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"
#include "common/types.hpp"
#include "trial/trial.hpp"

namespace rqsim {

struct PauliFrame {
  std::uint64_t x = 0;
  std::uint64_t z = 0;

  bool identity() const { return x == 0 && z == 0; }
  std::uint64_t support() const { return x | z; }

  friend bool operator==(const PauliFrame& a, const PauliFrame& b) {
    return a.x == b.x && a.z == b.z;
  }
};

/// Decode an error event into its frame (the same decoding
/// sched/backend.cpp uses to apply the event to a statevector).
PauliFrame frame_from_event(const Circuit& circuit, const ErrorEvent& event);

/// Rewrite `frame` to G·frame·G† (sign dropped) if the gate is Clifford,
/// or verify the frame commutes past a non-Clifford gate. Returns false if
/// the gate blocks the frame (see file comment). `touched` is set to true
/// when the gate actually transformed or could have transformed the frame
/// (support overlap) — the unit the frame_ops counters bill.
bool conjugate_frame_through_gate(PauliFrame& frame, const Gate& gate,
                                  bool& touched);

/// Result of pushing a trial's remaining errors to the end of the circuit.
struct FramePropagation {
  bool ok = false;       // false: some gate blocked the frame
  PauliFrame frame;      // final frame at the end of the circuit
  opcount_t frame_ops = 0;  // table-lookup conjugations performed
};

/// Propagate the frames of events[event_depth..] (one trial's) through the rest of
/// the circuit. Event semantics match the scheduler: an error at layer L
/// applies after the gates of layer L, so its frame joins the walk just
/// before layer L+1. Stops (ok = false) at the first blocking gate.
FramePropagation propagate_frame_to_end(const Circuit& circuit,
                                        const Layering& layering,
                                        std::span<const ErrorEvent> events,
                                        std::size_t event_depth);

/// Outcome-bit flip mask of a frame: bit k set iff the frame applies X or
/// Y on measured_qubits[k]. A final state F·|ψ⟩ has
/// probs'[b] = probs[b ^ flip] for every outcome b — the X part of the
/// frame permutes the computational basis, the Z part only adds phases.
std::uint64_t frame_outcome_flip(const PauliFrame& frame,
                                 const std::vector<qubit_t>& measured_qubits);

/// True when the frame's X part is confined to `measured_mask` (OR of
/// 1 << q over measured qubits). Required for collapse: an X on an
/// *unmeasured* qubit permutes amplitudes within the marginalization
/// buckets, which floating-point addition order would then observe.
bool frame_x_confined_to(const PauliFrame& frame, std::uint64_t measured_mask);

}  // namespace rqsim
