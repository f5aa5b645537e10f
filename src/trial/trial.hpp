// Monte Carlo trial representation.
//
// A trial is a sparse list of error events — one per gate that misfired —
// plus a classical measurement-flip mask. Events are keyed by
// (layer, position, op): `layer` is the ASAP layer whose end hosts the
// error, `position` is the index of the gate the error is attached to, and
// `op` encodes the injected Pauli (1..3 = X/Y/Z for single-qubit gates,
// 1..15 = non-identity Pauli pair index for two-qubit gates).
//
// Idle errors (noise without an operation, paper Section III.B.1) use a
// virtual position past the gate range: position = num_gates + qubit, with
// op in 1..3. Within a layer they therefore sort after all gate errors,
// giving every execution path the same deterministic order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace rqsim {

struct ErrorEvent {
  layer_index_t layer = 0;
  gate_index_t position = 0;
  std::uint8_t op = 0;

  friend bool operator==(const ErrorEvent& a, const ErrorEvent& b) {
    return a.layer == b.layer && a.position == b.position && a.op == b.op;
  }

  /// Strict ordering by (layer, position, op) — the reorder key.
  friend bool operator<(const ErrorEvent& a, const ErrorEvent& b) {
    if (a.layer != b.layer) {
      return a.layer < b.layer;
    }
    if (a.position != b.position) {
      return a.position < b.position;
    }
    return a.op < b.op;
  }
};

struct Trial {
  /// Error events sorted by (layer, position).
  std::vector<ErrorEvent> events;

  /// Bit k set = classical measurement bit k is flipped.
  std::uint64_t meas_flip_mask = 0;

  /// Seed of this trial's private outcome-sampling stream (see
  /// trial/generator.hpp, assign_measurement_seeds). Sampling from a
  /// per-trial seed instead of one shared stream makes the sampled
  /// histogram independent of execution order, which is what lets the
  /// tree executor at any thread count and the baseline loop produce the
  /// same histogram bit for bit under any thread interleaving.
  std::uint64_t meas_seed = 0;

  std::size_t num_errors() const { return events.size(); }
};

/// Length of the longest shared event prefix of two trials.
std::size_t shared_prefix_length(const Trial& a, const Trial& b);

/// Idle-event position encoding (relative to a circuit's gate count).
constexpr gate_index_t idle_position(std::size_t num_gates, qubit_t qubit) {
  return static_cast<gate_index_t>(num_gates) + qubit;
}
constexpr bool is_idle_position(std::size_t num_gates, gate_index_t position) {
  return position >= num_gates;
}
constexpr qubit_t idle_qubit(std::size_t num_gates, gate_index_t position) {
  return position - static_cast<gate_index_t>(num_gates);
}

}  // namespace rqsim
