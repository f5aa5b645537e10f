#include "service/job.hpp"

#include <cstring>

namespace rqsim {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

const char* job_priority_name(JobPriority priority) {
  switch (priority) {
    case JobPriority::kLow: return "low";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kHigh: return "high";
  }
  return "unknown";
}

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }

  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
};

void mix_noise(Fnv1a& fnv, const NoiseModel& noise, unsigned num_qubits) {
  for (qubit_t q = 0; q < num_qubits; ++q) {
    fnv.mix(noise.single_qubit_rate(q));
    fnv.mix(noise.measurement_flip_rate(q));
    fnv.mix(noise.idle_pauli_rate(q));
    for (const double w : noise.single_pauli_weights(q)) {
      fnv.mix(w);
    }
    for (const double w : noise.idle_pauli_weights(q)) {
      fnv.mix(w);
    }
  }
  for (qubit_t a = 0; a < num_qubits; ++a) {
    for (qubit_t b = a + 1; b < num_qubits; ++b) {
      fnv.mix(noise.two_qubit_rate(a, b));
    }
  }
}

bool same_noise(const NoiseModel& a, const NoiseModel& b, unsigned num_qubits) {
  for (qubit_t q = 0; q < num_qubits; ++q) {
    if (a.single_qubit_rate(q) != b.single_qubit_rate(q) ||
        a.measurement_flip_rate(q) != b.measurement_flip_rate(q) ||
        a.idle_pauli_rate(q) != b.idle_pauli_rate(q) ||
        a.single_pauli_weights(q) != b.single_pauli_weights(q) ||
        a.idle_pauli_weights(q) != b.idle_pauli_weights(q)) {
      return false;
    }
  }
  for (qubit_t x = 0; x < num_qubits; ++x) {
    for (qubit_t y = x + 1; y < num_qubits; ++y) {
      if (a.two_qubit_rate(x, y) != b.two_qubit_rate(x, y)) {
        return false;
      }
    }
  }
  return true;
}

bool same_circuit(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_gates() != b.num_gates() ||
      a.measured_qubits() != b.measured_qubits()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_gates(); ++i) {
    const Gate& ga = a.gates()[i];
    const Gate& gb = b.gates()[i];
    if (ga.kind != gb.kind || ga.qubits != gb.qubits || ga.params != gb.params) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t batch_fingerprint(const JobSpec& spec) {
  Fnv1a fnv;
  fnv.mix(static_cast<std::uint64_t>(spec.circuit.num_qubits()));
  for (const Gate& gate : spec.circuit.gates()) {
    fnv.mix(static_cast<std::uint64_t>(gate.kind));
    for (const qubit_t q : gate.qubits) {
      fnv.mix(static_cast<std::uint64_t>(q));
    }
    for (const double p : gate.params) {
      fnv.mix(p);
    }
  }
  for (const qubit_t q : spec.circuit.measured_qubits()) {
    fnv.mix(static_cast<std::uint64_t>(q));
  }
  mix_noise(fnv, spec.noise, spec.circuit.num_qubits());
  fnv.mix(static_cast<std::uint64_t>(spec.config.mode));
  fnv.mix(static_cast<std::uint64_t>(spec.config.max_states));
  fnv.mix(static_cast<std::uint64_t>(spec.config.fuse_gates));
  fnv.mix(static_cast<std::uint64_t>(spec.config.frame_collapse));
  fnv.mix(static_cast<std::uint64_t>(spec.analyze_only));
  return fnv.h;
}

bool batch_compatible(const JobSpec& a, const JobSpec& b) {
  // Thread counts need not match: the merged tree runs on the largest one
  // and its results are bitwise identical at every count.
  if (a.analyze_only || b.analyze_only || !configs_mergeable(a.config, b.config)) {
    return false;
  }
  return same_circuit(a.circuit, b.circuit) &&
         same_noise(a.noise, b.noise, a.circuit.num_qubits());
}

}  // namespace rqsim
