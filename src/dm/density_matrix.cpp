#include "dm/density_matrix.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "linalg/pauli.hpp"
#include "sim/kernels.hpp"

namespace rqsim {

namespace {

Mat2 conj2(const Mat2& m) {
  Mat2 out;
  for (std::size_t i = 0; i < 4; ++i) {
    out.m[i] = std::conj(m.m[i]);
  }
  return out;
}

Mat4 conj4(const Mat4& m) {
  Mat4 out;
  for (std::size_t i = 0; i < 16; ++i) {
    out.m[i] = std::conj(m.m[i]);
  }
  return out;
}

}  // namespace

DensityMatrix::DensityMatrix(unsigned num_qubits)
    : num_qubits_(num_qubits), vec_(2 * num_qubits) {
  RQSIM_CHECK(num_qubits >= 1 && num_qubits <= 12,
              "DensityMatrix: num_qubits must be in [1, 12]");
}

cplx DensityMatrix::at(std::uint64_t row, std::uint64_t col) const {
  RQSIM_CHECK(row < dim() && col < dim(), "DensityMatrix::at: index out of range");
  return vec_[(col << num_qubits_) | row];
}

double DensityMatrix::trace() const {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dim(); ++i) {
    acc += at(i, i).real();
  }
  return acc;
}

double DensityMatrix::purity() const {
  // tr(ρ²) = Σ_{rc} |ρ(r,c)|² for Hermitian ρ.
  double acc = 0.0;
  for (const cplx& x : vec_.amplitudes()) {
    acc += std::norm(x);
  }
  return acc;
}

void DensityMatrix::apply_gate(const Gate& gate) {
  const int arity = gate.arity();
  RQSIM_CHECK(arity <= 2, "DensityMatrix::apply_gate: decompose 3-qubit gates first");
  if (arity == 1) {
    const Mat2 u = gate_matrix1(gate);
    apply_mat2(vec_, u, gate.qubits[0]);
    apply_mat2(vec_, conj2(u), gate.qubits[0] + num_qubits_);
  } else {
    const Mat4 u = gate_matrix2(gate);
    apply_mat4(vec_, u, gate.qubits[0], gate.qubits[1]);
    apply_mat4(vec_, conj4(u), gate.qubits[0] + num_qubits_,
               gate.qubits[1] + num_qubits_);
  }
}

void DensityMatrix::apply_depolarizing1(qubit_t target, double p) {
  apply_pauli_channel1(target, p / 3.0, p / 3.0, p / 3.0);
}

void DensityMatrix::apply_pauli_channel1(qubit_t target, double px, double py,
                                         double pz) {
  RQSIM_CHECK(target < num_qubits_, "apply_pauli_channel1: bad target");
  RQSIM_CHECK(px >= 0.0 && py >= 0.0 && pz >= 0.0 && px + py + pz <= 1.0,
              "apply_pauli_channel1: bad probabilities");
  if (px + py + pz == 0.0) {
    return;
  }
  const double weights[3] = {px, py, pz};
  const Pauli paulis[3] = {Pauli::X, Pauli::Y, Pauli::Z};
  std::vector<cplx> acc(vec_.dim(), cplx(0.0));
  for (int k = 0; k < 3; ++k) {
    if (weights[k] == 0.0) {
      continue;
    }
    StateVector scratch = vec_;
    const Mat2 m = pauli_matrix(paulis[k]);
    apply_mat2(scratch, m, target);
    apply_mat2(scratch, conj2(m), target + num_qubits_);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += weights[k] * scratch[i];
    }
  }
  const double keep = 1.0 - px - py - pz;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    vec_[i] = keep * vec_[i] + acc[i];
  }
}

void DensityMatrix::apply_depolarizing2(qubit_t a, qubit_t b, double p) {
  RQSIM_CHECK(a < num_qubits_ && b < num_qubits_ && a != b,
              "apply_depolarizing2: bad operands");
  RQSIM_CHECK(p >= 0.0 && p <= 1.0, "apply_depolarizing2: bad probability");
  if (p == 0.0) {
    return;
  }
  std::vector<cplx> acc(vec_.dim(), cplx(0.0));
  for (int k = 0; k < kNumPairPaulis; ++k) {
    const Mat4 m = pauli_pair_matrix(nth_pair_pauli(k));
    StateVector scratch = vec_;
    apply_mat4(scratch, m, a, b);
    apply_mat4(scratch, conj4(m), a + num_qubits_, b + num_qubits_);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += scratch[i];
    }
  }
  const double keep = 1.0 - p;
  const double mix = p / 15.0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    vec_[i] = keep * vec_[i] + mix * acc[i];
  }
}

std::vector<double> DensityMatrix::measurement_probabilities(
    const std::vector<qubit_t>& measured_qubits) const {
  RQSIM_CHECK(!measured_qubits.empty(), "measurement_probabilities: no qubits");
  for (qubit_t q : measured_qubits) {
    RQSIM_CHECK(q < num_qubits_, "measurement_probabilities: qubit out of range");
  }
  std::vector<double> probs(pow2(static_cast<unsigned>(measured_qubits.size())), 0.0);
  for (std::uint64_t i = 0; i < dim(); ++i) {
    const double p = at(i, i).real();
    std::uint64_t key = 0;
    for (std::size_t k = 0; k < measured_qubits.size(); ++k) {
      key |= static_cast<std::uint64_t>(get_bit(i, measured_qubits[k])) << k;
    }
    probs[key] += p;
  }
  return probs;
}

std::vector<double> apply_measurement_flips(std::vector<double> probs,
                                            const std::vector<double>& flip_rates) {
  for (std::size_t bit = 0; bit < flip_rates.size(); ++bit) {
    const double f = flip_rates[bit];
    RQSIM_CHECK(f >= 0.0 && f <= 1.0, "apply_measurement_flips: bad rate");
    if (f == 0.0) {
      continue;
    }
    const std::uint64_t mask = std::uint64_t{1} << bit;
    std::vector<double> next(probs.size(), 0.0);
    for (std::uint64_t i = 0; i < probs.size(); ++i) {
      next[i] += (1.0 - f) * probs[i];
      next[i ^ mask] += f * probs[i];
    }
    probs = std::move(next);
  }
  return probs;
}

std::vector<double> exact_noisy_distribution(const Circuit& circuit,
                                             const NoiseModel& noise) {
  circuit.validate();
  RQSIM_CHECK(circuit.num_measured() > 0,
              "exact_noisy_distribution: circuit has no measurements");
  const Layering layering = layer_circuit(circuit);
  DensityMatrix rho(circuit.num_qubits());
  // Layer-by-layer evolution mirrors the Monte Carlo error positions: each
  // gate's depolarizing channel fires at its layer boundary, followed by
  // the per-qubit idle channel. (All Pauli channels commute, so the order
  // within a boundary does not affect the result.)
  for (layer_index_t l = 0; l < layering.num_layers(); ++l) {
    for (gate_index_t g : layering.layers[l]) {
      rho.apply_gate(circuit.gates()[g]);
    }
    for (gate_index_t g : layering.layers[l]) {
      const Gate& gate = circuit.gates()[g];
      if (gate.arity() == 1) {
        const qubit_t q = gate.qubits[0];
        const double rate = noise.single_qubit_rate(q);
        const auto w = noise.single_pauli_weights(q);
        rho.apply_pauli_channel1(q, rate * w[0], rate * w[1], rate * w[2]);
      } else {
        rho.apply_depolarizing2(gate.qubits[0], gate.qubits[1],
                                noise.two_qubit_rate(gate.qubits[0], gate.qubits[1]));
      }
    }
    if (noise.has_idle_noise()) {
      for (qubit_t q = 0; q < circuit.num_qubits(); ++q) {
        const double rate = noise.idle_pauli_rate(q);
        const auto w = noise.idle_pauli_weights(q);
        rho.apply_pauli_channel1(q, rate * w[0], rate * w[1], rate * w[2]);
      }
    }
  }
  std::vector<double> probs = rho.measurement_probabilities(circuit.measured_qubits());
  std::vector<double> flips(circuit.num_measured());
  for (std::size_t bit = 0; bit < flips.size(); ++bit) {
    flips[bit] = noise.measurement_flip_rate(circuit.measured_qubits()[bit]);
  }
  return apply_measurement_flips(std::move(probs), flips);
}

double expectation(const DensityMatrix& rho, const PauliString& pauli) {
  RQSIM_CHECK(pauli.min_qubits() <= rho.num_qubits(),
              "expectation: observable exceeds state size");
  if (pauli.is_identity()) {
    return rho.trace();
  }
  // P is a (signed, possibly imaginary) permutation: P|r⟩ = phase(r)·|σ(r)⟩,
  // so tr(ρP) = Σ_r ⟨r|ρP|r⟩ = Σ_r phase(r)·ρ(r, σ(r)).
  cplx acc = 0.0;
  const std::uint64_t dim = rho.dim();
  for (std::uint64_t r = 0; r < dim; ++r) {
    // Compute P|r⟩ = phase * |s⟩.
    std::uint64_t s = r;
    cplx phase = 1.0;
    for (const auto& [q, p] : pauli.factors()) {
      const unsigned bit = (r >> q) & 1U;
      switch (p) {
        case Pauli::X:
          s ^= std::uint64_t{1} << q;
          break;
        case Pauli::Y:
          s ^= std::uint64_t{1} << q;
          phase *= bit ? cplx(0.0, -1.0) : cplx(0.0, 1.0);
          break;
        case Pauli::Z:
          if (bit) {
            phase = -phase;
          }
          break;
        case Pauli::I:
          break;
      }
    }
    acc += phase * rho.at(r, s);
  }
  return acc.real();
}

}  // namespace rqsim
