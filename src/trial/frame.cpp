#include "trial/frame.hpp"

#include "common/error.hpp"
#include "linalg/pauli.hpp"

namespace rqsim {

namespace {

// 2-bit (x | z<<1) code of a Pauli enum value.
unsigned pauli_code(Pauli p) {
  switch (p) {
    case Pauli::I:
      return 0;
    case Pauli::X:
      return 1;
    case Pauli::Z:
      return 2;
    case Pauli::Y:
      return 3;
  }
  return 0;
}

void xor_pauli(PauliFrame& frame, Pauli p, qubit_t q) {
  const unsigned code = pauli_code(p);
  frame.x ^= static_cast<std::uint64_t>(code & 1u) << q;
  frame.z ^= static_cast<std::uint64_t>(code >> 1) << q;
}

std::uint64_t gate_support(const Gate& gate) {
  std::uint64_t mask = 0;
  const int arity = gate.arity();
  for (int i = 0; i < arity; ++i) {
    mask |= std::uint64_t{1} << gate.qubits[static_cast<std::size_t>(i)];
  }
  return mask;
}

}  // namespace

PauliFrame frame_from_event(const Circuit& circuit, const ErrorEvent& event) {
  PauliFrame frame;
  const std::size_t num_gates = circuit.num_gates();
  if (is_idle_position(num_gates, event.position)) {
    xor_pauli(frame, static_cast<Pauli>(event.op),
              idle_qubit(num_gates, event.position));
    return frame;
  }
  const Gate& gate = circuit.gates()[event.position];
  if (gate.arity() == 1) {
    xor_pauli(frame, static_cast<Pauli>(event.op), gate.qubits[0]);
    return frame;
  }
  RQSIM_CHECK(gate.arity() == 2, "frame_from_event: unsupported gate arity");
  const PauliPair pair = pauli_pair_from_index(event.op);
  xor_pauli(frame, pair.p1, gate.qubits[0]);
  xor_pauli(frame, pair.p0, gate.qubits[1]);
  return frame;
}

bool conjugate_frame_through_gate(PauliFrame& frame, const Gate& gate,
                                  bool& touched) {
  const std::uint64_t support = gate_support(gate);
  if ((frame.support() & support) == 0) {
    touched = false;
    return true;  // disjoint tensor factors commute
  }
  touched = true;
  if (gate.is_clifford()) {
    const PauliConjugation& table = *gate.pauli_conjugation();
    if (gate.arity() == 1) {
      const qubit_t q = gate.qubits[0];
      const unsigned in = static_cast<unsigned>((frame.x >> q) & 1u) |
                          static_cast<unsigned>((frame.z >> q) & 1u) << 1;
      const unsigned out = table.one[in];
      frame.x = (frame.x & ~(std::uint64_t{1} << q)) |
                static_cast<std::uint64_t>(out & 1u) << q;
      frame.z = (frame.z & ~(std::uint64_t{1} << q)) |
                static_cast<std::uint64_t>(out >> 1) << q;
    } else {
      const qubit_t a = gate.qubits[0];
      const qubit_t b = gate.qubits[1];
      const unsigned in = static_cast<unsigned>((frame.x >> a) & 1u) |
                          static_cast<unsigned>((frame.z >> a) & 1u) << 1 |
                          static_cast<unsigned>((frame.x >> b) & 1u) << 2 |
                          static_cast<unsigned>((frame.z >> b) & 1u) << 3;
      const unsigned out = table.two[in];
      const std::uint64_t clear =
          ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b));
      frame.x = (frame.x & clear) | static_cast<std::uint64_t>(out & 1u) << a |
                static_cast<std::uint64_t>((out >> 2) & 1u) << b;
      frame.z = (frame.z & clear) |
                static_cast<std::uint64_t>((out >> 1) & 1u) << a |
                static_cast<std::uint64_t>((out >> 3) & 1u) << b;
    }
    return true;
  }
  // Non-Clifford: the frame may still commute past it exactly. Diagonal
  // gates commute with a Z-only frame on their qubits; nothing commutes
  // with an X/Y component on a non-Clifford gate's support.
  if (gate_is_diagonal(gate.kind)) {
    return (frame.x & support) == 0;
  }
  return false;
}

FramePropagation propagate_frame_to_end(const Circuit& circuit,
                                        const Layering& layering,
                                        std::span<const ErrorEvent> events,
                                        std::size_t event_depth) {
  FramePropagation result;
  const std::size_t num_events = events.size();
  if (event_depth >= num_events) {
    result.ok = true;
    return result;  // nothing left to push: identity frame
  }
  std::size_t ei = event_depth;
  const std::size_t num_layers = layering.num_layers();
  for (std::size_t layer = events[ei].layer; layer < num_layers; ++layer) {
    // Gates of `layer` act before the errors hosted at the end of `layer`.
    if (!result.frame.identity()) {
      for (const gate_index_t g : layering.layers[layer]) {
        bool touched = false;
        if (!conjugate_frame_through_gate(result.frame, circuit.gates()[g],
                                          touched)) {
          return result;  // blocked: ok stays false
        }
        if (touched) {
          ++result.frame_ops;
        }
      }
    }
    while (ei < num_events && events[ei].layer == layer) {
      const PauliFrame ef = frame_from_event(circuit, events[ei]);
      result.frame.x ^= ef.x;
      result.frame.z ^= ef.z;
      ++ei;
    }
  }
  RQSIM_CHECK(ei == num_events, "propagate_frame_to_end: event past last layer");
  result.ok = true;
  return result;
}

std::uint64_t frame_outcome_flip(const PauliFrame& frame,
                                 const std::vector<qubit_t>& measured_qubits) {
  std::uint64_t flip = 0;
  for (std::size_t k = 0; k < measured_qubits.size(); ++k) {
    if ((frame.x >> measured_qubits[k]) & 1u) {
      flip |= std::uint64_t{1} << k;
    }
  }
  return flip;
}

bool frame_x_confined_to(const PauliFrame& frame, std::uint64_t measured_mask) {
  return (frame.x & ~measured_mask) == 0;
}

}  // namespace rqsim
