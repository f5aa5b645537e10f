#include "circuit/gate.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace rqsim {

int gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::U2:
    case GateKind::U3:
      return 1;
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::SWAP:
      return 2;
    case GateKind::CCX:
      return 3;
  }
  return 0;
}

int gate_num_params(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
      return 1;
    case GateKind::U2:
      return 2;
    case GateKind::U3:
      return 3;
    default:
      return 0;
  }
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::X:
      return "x";
    case GateKind::Y:
      return "y";
    case GateKind::Z:
      return "z";
    case GateKind::H:
      return "h";
    case GateKind::S:
      return "s";
    case GateKind::Sdg:
      return "sdg";
    case GateKind::T:
      return "t";
    case GateKind::Tdg:
      return "tdg";
    case GateKind::RX:
      return "rx";
    case GateKind::RY:
      return "ry";
    case GateKind::RZ:
      return "rz";
    case GateKind::P:
      return "p";
    case GateKind::U2:
      return "u2";
    case GateKind::U3:
      return "u3";
    case GateKind::CX:
      return "cx";
    case GateKind::CZ:
      return "cz";
    case GateKind::CP:
      return "cp";
    case GateKind::SWAP:
      return "swap";
    case GateKind::CCX:
      return "ccx";
  }
  return "?";
}

bool gate_kind_is_clifford(GateKind kind) {
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::SWAP:
      return true;
    default:
      return false;
  }
}

namespace {

// Per-qubit symplectic bit rules; index = x | z<<1. Tables are generated
// once from these rules so the 1q and 2q encodings can't drift apart.
struct BitRule {
  // Applies the gate's conjugation to (xa, za, xb, zb); 1q gates ignore b.
  void (*apply)(unsigned& xa, unsigned& za, unsigned& xb, unsigned& zb);
};

void rule_identity(unsigned&, unsigned&, unsigned&, unsigned&) {}
// H: X ↔ Z (Y stays Y up to sign).
void rule_h(unsigned& xa, unsigned& za, unsigned&, unsigned&) { std::swap(xa, za); }
// S / Sdg: X → ±Y, Y → ∓X, Z → Z: the z bit picks up the x bit.
void rule_s(unsigned& xa, unsigned& za, unsigned&, unsigned&) { za ^= xa; }
// CX (control a, target b): X_a → X_a X_b, Z_b → Z_a Z_b.
void rule_cx(unsigned& xa, unsigned& za, unsigned& xb, unsigned& zb) {
  xb ^= xa;
  za ^= zb;
}
// CZ: X_a → X_a Z_b, X_b → Z_a X_b.
void rule_cz(unsigned& xa, unsigned& za, unsigned& xb, unsigned& zb) {
  zb ^= xa;
  za ^= xb;
}
void rule_swap(unsigned& xa, unsigned& za, unsigned& xb, unsigned& zb) {
  std::swap(xa, xb);
  std::swap(za, zb);
}

PauliConjugation build_conjugation(const BitRule& rule) {
  PauliConjugation table;
  for (unsigned in = 0; in < 16; ++in) {
    unsigned xa = in & 1u, za = (in >> 1) & 1u;
    unsigned xb = (in >> 2) & 1u, zb = (in >> 3) & 1u;
    rule.apply(xa, za, xb, zb);
    const unsigned out = xa | za << 1 | xb << 2 | zb << 3;
    table.two[in] = static_cast<std::uint8_t>(out);
    if (in < 4) {
      table.one[in] = static_cast<std::uint8_t>(out & 3u);
    }
  }
  return table;
}

}  // namespace

const PauliConjugation& pauli_conjugation_table(GateKind kind) {
  static const PauliConjugation kIdentity = build_conjugation({rule_identity});
  static const PauliConjugation kH = build_conjugation({rule_h});
  static const PauliConjugation kS = build_conjugation({rule_s});
  static const PauliConjugation kCx = build_conjugation({rule_cx});
  static const PauliConjugation kCz = build_conjugation({rule_cz});
  static const PauliConjugation kSwap = build_conjugation({rule_swap});
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
      return kIdentity;  // Paulis commute with Paulis up to sign
    case GateKind::H:
      return kH;
    case GateKind::S:
    case GateKind::Sdg:
      return kS;  // same bit map; only the dropped sign differs
    case GateKind::CX:
      return kCx;
    case GateKind::CZ:
      return kCz;
    case GateKind::SWAP:
      return kSwap;
    default:
      break;
  }
  RQSIM_CHECK(false, "pauli_conjugation_table: gate kind is not Clifford");
  return kIdentity;
}

namespace {

void cache_clifford(Gate& g) {
  g.clifford = gate_kind_is_clifford(g.kind);
  g.conj = g.clifford ? &pauli_conjugation_table(g.kind) : nullptr;
}

}  // namespace

Gate Gate::make1(GateKind kind, qubit_t q, double p0, double p1, double p2) {
  RQSIM_CHECK(gate_arity(kind) == 1, "Gate::make1: kind is not single-qubit");
  Gate g;
  g.kind = kind;
  g.qubits = {q, 0, 0};
  g.params = {p0, p1, p2};
  cache_clifford(g);
  return g;
}

Gate Gate::make2(GateKind kind, qubit_t a, qubit_t b, double p0) {
  RQSIM_CHECK(gate_arity(kind) == 2, "Gate::make2: kind is not two-qubit");
  RQSIM_CHECK(a != b, "Gate::make2: operands must differ");
  Gate g;
  g.kind = kind;
  g.qubits = {a, b, 0};
  g.params = {p0, 0.0, 0.0};
  cache_clifford(g);
  return g;
}

Gate Gate::make3(GateKind kind, qubit_t a, qubit_t b, qubit_t c) {
  RQSIM_CHECK(gate_arity(kind) == 3, "Gate::make3: kind is not three-qubit");
  RQSIM_CHECK(a != b && b != c && a != c, "Gate::make3: operands must differ");
  Gate g;
  g.kind = kind;
  g.qubits = {a, b, c};
  cache_clifford(g);
  return g;
}

namespace {

Mat2 u3_matrix(double theta, double phi, double lambda) {
  Mat2 m;
  const double ct = std::cos(theta / 2.0);
  const double st = std::sin(theta / 2.0);
  m.at(0, 0) = ct;
  m.at(0, 1) = -std::exp(cplx(0.0, lambda)) * st;
  m.at(1, 0) = std::exp(cplx(0.0, phi)) * st;
  m.at(1, 1) = std::exp(cplx(0.0, phi + lambda)) * ct;
  return m;
}

}  // namespace

Mat2 gate_matrix1(const Gate& gate) {
  RQSIM_CHECK(gate.arity() == 1, "gate_matrix1: gate is not single-qubit");
  const double p0 = gate.params[0];
  const double p1 = gate.params[1];
  const double p2 = gate.params[2];
  Mat2 m;
  switch (gate.kind) {
    case GateKind::X:
      m.at(0, 1) = 1.0;
      m.at(1, 0) = 1.0;
      return m;
    case GateKind::Y:
      m.at(0, 1) = cplx(0.0, -1.0);
      m.at(1, 0) = cplx(0.0, 1.0);
      return m;
    case GateKind::Z:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = -1.0;
      return m;
    case GateKind::H: {
      const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
      m.at(0, 0) = inv_sqrt2;
      m.at(0, 1) = inv_sqrt2;
      m.at(1, 0) = inv_sqrt2;
      m.at(1, 1) = -inv_sqrt2;
      return m;
    }
    case GateKind::S:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = cplx(0.0, 1.0);
      return m;
    case GateKind::Sdg:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = cplx(0.0, -1.0);
      return m;
    case GateKind::T:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = std::exp(cplx(0.0, kPi / 4.0));
      return m;
    case GateKind::Tdg:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = std::exp(cplx(0.0, -kPi / 4.0));
      return m;
    case GateKind::RX:
      return u3_matrix(p0, -kPi / 2.0, kPi / 2.0);
    case GateKind::RY:
      return u3_matrix(p0, 0.0, 0.0);
    case GateKind::RZ:
      // rz(λ) = diag(e^{-iλ/2}, e^{iλ/2}).
      m.at(0, 0) = std::exp(cplx(0.0, -p0 / 2.0));
      m.at(1, 1) = std::exp(cplx(0.0, p0 / 2.0));
      return m;
    case GateKind::P:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = std::exp(cplx(0.0, p0));
      return m;
    case GateKind::U2:
      return u3_matrix(kPi / 2.0, p0, p1);
    case GateKind::U3:
      return u3_matrix(p0, p1, p2);
    default:
      break;
  }
  RQSIM_CHECK(false, "gate_matrix1: unhandled gate kind");
  return m;
}

Mat4 gate_matrix2(const Gate& gate) {
  RQSIM_CHECK(gate.arity() == 2, "gate_matrix2: gate is not two-qubit");
  Mat4 m;
  switch (gate.kind) {
    case GateKind::CX:
      m.at(0, 0) = 1.0;
      m.at(1, 1) = 1.0;
      m.at(2, 3) = 1.0;
      m.at(3, 2) = 1.0;
      return m;
    case GateKind::CZ:
      m = Mat4::identity();
      m.at(3, 3) = -1.0;
      return m;
    case GateKind::CP:
      m = Mat4::identity();
      m.at(3, 3) = std::exp(cplx(0.0, gate.params[0]));
      return m;
    case GateKind::SWAP:
      m.at(0, 0) = 1.0;
      m.at(1, 2) = 1.0;
      m.at(2, 1) = 1.0;
      m.at(3, 3) = 1.0;
      return m;
    default:
      break;
  }
  RQSIM_CHECK(false, "gate_matrix2: unhandled gate kind");
  return m;
}

bool gate_is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CZ:
    case GateKind::CP:
      return true;
    default:
      return false;
  }
}

}  // namespace rqsim
