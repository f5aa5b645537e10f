#include "sim/kernels.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/mul_add.hpp"
#include "sim/kernel_engine.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define RQSIM_MAT2_AVX512 1
#endif

namespace rqsim {

namespace {

// Per-gate-class dispatch counters ("kernel.ops_<class>"): which kernel
// families dominate a workload. Counted once per dispatch, independent of
// register size, so a profile separates "many cheap phase gates" from "few
// expensive generic mat2 applications". Namespace scope, not function-local
// statics: the first apply_gate call can come from several tree-executor
// workers at once, and the guarded lazy initialization races with a
// concurrent Counter::add under TSan — before main() it is single-threaded.
telemetry::Counter pauli1q("kernel.ops_pauli1q");
telemetry::Counter h1q("kernel.ops_h");
telemetry::Counter phase1q("kernel.ops_phase1q");
telemetry::Counter mat2("kernel.ops_mat2");
telemetry::Counter cx("kernel.ops_cx");
telemetry::Counter diag2q("kernel.ops_diag2q");
telemetry::Counter swap2q("kernel.ops_swap");
telemetry::Counter ccx("kernel.ops_ccx");
telemetry::Counter fused_mat2("kernel.ops_fused_mat2");
telemetry::Counter fused_mat4("kernel.ops_fused_mat4");

// Full-register passes: one per gate, error operator or fused op applied to
// a whole state (a blocked gate run counts one for all its gates).
telemetry::Counter state_sweeps("sim.state_sweeps");

// The kernels operate on the amplitude array as interleaved doubles
// (re, im, re, im, …) with hand-expanded complex arithmetic: std::complex
// multiplication at -O* goes through NaN-propagation checks that block
// auto-vectorization, while the expanded form compiles to straight FMA
// streams. std::complex<double> guarantees this layout.
inline double* amp_data(StateVector& state) {
  return reinterpret_cast<double*>(state.amplitudes().data());
}

// Every amplitude must round the same way wherever it sits in the sweep:
// the blocked gate-run applier (sim/gate_runs.hpp) moves amplitudes into a
// small scratch register and back, and the AVX-512 mat2 path replaces the
// compiler's loop. With implicit contraction (`-ffp-contract=fast`, and
// GCC's complex-multiply vector pattern, which emits vfmaddsub even under
// `-ffp-contract=off`) the compiler fuses mul+add differently in the
// vectorized loop body than in its scalar tail, so the complex products
// below spell every fma out with mul_add / mul_sub (common/mul_add.hpp).

#if defined(RQSIM_MAT2_AVX512)
// m·a for four interleaved complex lanes. Even (real) lanes compute
// fma(mr, ar, -(mi*ai)) and odd (imaginary) lanes fma(mr, ai, mi*ar): the
// same single rounding per lane as the scalar mul_sub/mul_add pair. (The
// all-ones zero-masking permutes are plain permutes; GCC 12's unmasked
// forms trip -Wmaybe-uninitialized on their undefined pass-through.)
inline __m512d cmul(__m512d mr, __m512d mi, __m512d a) {
  return _mm512_fmaddsub_pd(mr, a, _mm512_mul_pd(mi, _mm512_maskz_permute_pd(0xFF, a, 0x55)));
}

// Targets 0 and 1: one register holds two whole amplitude pairs, as
// 128-bit lanes [a0 a1 b0 b1] (target 0) or [a0 b0 a1 b1] (target 1).
// Lane permutes build the "first" and "second" operand of every output
// lane; `ar/ai` and `br/bi` hold the matching matrix row entries per lane.
template <int kTarget>
void mat2_avx512_low(double* d, std::uint64_t dim, const Mat2& m) {
  const double m00r = m.at(0, 0).real(), m00i = m.at(0, 0).imag();
  const double m01r = m.at(0, 1).real(), m01i = m.at(0, 1).imag();
  const double m10r = m.at(1, 0).real(), m10i = m.at(1, 0).imag();
  const double m11r = m.at(1, 1).real(), m11i = m.at(1, 1).imag();
  __m512d ar, ai, br, bi;
  if constexpr (kTarget == 0) {
    ar = _mm512_setr_pd(m00r, m00r, m10r, m10r, m00r, m00r, m10r, m10r);
    ai = _mm512_setr_pd(m00i, m00i, m10i, m10i, m00i, m00i, m10i, m10i);
    br = _mm512_setr_pd(m01r, m01r, m11r, m11r, m01r, m01r, m11r, m11r);
    bi = _mm512_setr_pd(m01i, m01i, m11i, m11i, m01i, m01i, m11i, m11i);
  } else {
    ar = _mm512_setr_pd(m00r, m00r, m00r, m00r, m10r, m10r, m10r, m10r);
    ai = _mm512_setr_pd(m00i, m00i, m00i, m00i, m10i, m10i, m10i, m10i);
    br = _mm512_setr_pd(m01r, m01r, m01r, m01r, m11r, m11r, m11r, m11r);
    bi = _mm512_setr_pd(m01i, m01i, m01i, m01i, m11i, m11i, m11i, m11i);
  }
  for (std::uint64_t j = 0; j < 2 * dim; j += 8) {
    const __m512d v = _mm512_loadu_pd(d + j);
    __m512d x0, x1;
    if constexpr (kTarget == 0) {
      x0 = _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0xA0);  // [a0 a0 b0 b0]
      x1 = _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0xF5);  // [a1 a1 b1 b1]
    } else {
      x0 = _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0x44);  // [a0 b0 a0 b0]
      x1 = _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0xEE);  // [a1 b1 a1 b1]
    }
    _mm512_storeu_pd(d + j, _mm512_add_pd(cmul(ar, ai, x0), cmul(br, bi, x1)));
  }
}

// Targets >= 2: a pair's two halves are 2^target amplitudes apart, and each
// half-run is a whole number of registers.
void mat2_avx512_high(double* d, std::uint64_t dim, const Mat2& m, qubit_t target) {
  const __m512d m00r = _mm512_set1_pd(m.at(0, 0).real());
  const __m512d m00i = _mm512_set1_pd(m.at(0, 0).imag());
  const __m512d m01r = _mm512_set1_pd(m.at(0, 1).real());
  const __m512d m01i = _mm512_set1_pd(m.at(0, 1).imag());
  const __m512d m10r = _mm512_set1_pd(m.at(1, 0).real());
  const __m512d m10i = _mm512_set1_pd(m.at(1, 0).imag());
  const __m512d m11r = _mm512_set1_pd(m.at(1, 1).real());
  const __m512d m11i = _mm512_set1_pd(m.at(1, 1).imag());
  const std::uint64_t stride2 = std::uint64_t{2} << target;  // interleaved stride
  for (std::uint64_t base = 0; base < 2 * dim; base += 2 * stride2) {
    double* p0 = d + base;
    double* p1 = p0 + stride2;
    for (std::uint64_t j = 0; j < stride2; j += 8) {
      const __m512d a0 = _mm512_loadu_pd(p0 + j);
      const __m512d a1 = _mm512_loadu_pd(p1 + j);
      _mm512_storeu_pd(p0 + j, _mm512_add_pd(cmul(m00r, m00i, a0), cmul(m01r, m01i, a1)));
      _mm512_storeu_pd(p1 + j, _mm512_add_pd(cmul(m10r, m10i, a0), cmul(m11r, m11i, a1)));
    }
  }
}
#endif

}  // namespace

void apply_mat2(StateVector& state, const Mat2& m, qubit_t target) {
#if defined(RQSIM_MAT2_AVX512)
  RQSIM_CHECK(target < state.num_qubits(), "apply_mat2: target out of range");
  if (state.dim() >= 4) {
    double* d = amp_data(state);
    if (target == 0) {
      mat2_avx512_low<0>(d, state.dim(), m);
    } else if (target == 1) {
      mat2_avx512_low<1>(d, state.dim(), m);
    } else {
      mat2_avx512_high(d, state.dim(), m, target);
    }
    return;
  }
#endif
  apply_mat2_portable(state, m, target);
}

void apply_mat2_portable(StateVector& state, const Mat2& m, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_mat2: target out of range");
  const std::uint64_t half = state.dim() >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;  // interleaved stride
  double* d = amp_data(state);
  const double m00r = m.at(0, 0).real(), m00i = m.at(0, 0).imag();
  const double m01r = m.at(0, 1).real(), m01i = m.at(0, 1).imag();
  const double m10r = m.at(1, 0).real(), m10i = m.at(1, 0).imag();
  const double m11r = m.at(1, 1).real(), m11i = m.at(1, 1).imag();
  for_target_runs(target, 0, half,
                  [=](std::uint64_t base, std::uint64_t run, auto step) {
    // Indexed accesses off loop-invariant bases (not per-iteration
    // pointers) so the loads get a vector type and the loop vectorizes.
    double* p0 = d + 2 * base;
    double* p1 = p0 + stride2;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      const double a0r = p0[s * j], a0i = p0[s * j + 1];
      const double a1r = p1[s * j], a1i = p1[s * j + 1];
      p0[s * j] = mul_sub(m00r, a0r, m00i * a0i) +
                  mul_sub(m01r, a1r, m01i * a1i);
      p0[s * j + 1] = mul_add(m00r, a0i, m00i * a0r) +
                      mul_add(m01r, a1i, m01i * a1r);
      p1[s * j] = mul_sub(m10r, a0r, m10i * a0i) +
                  mul_sub(m11r, a1r, m11i * a1i);
      p1[s * j + 1] = mul_add(m10r, a0i, m10i * a0r) +
                      mul_add(m11r, a1i, m11i * a1r);
    }
  });
}

void apply_mat4(StateVector& state, const Mat4& m, qubit_t q1, qubit_t q0) {
  RQSIM_CHECK(q1 < state.num_qubits() && q0 < state.num_qubits() && q1 != q0,
              "apply_mat4: bad operands");
  const qubit_t lo = q1 < q0 ? q1 : q0;
  const qubit_t hi = q1 < q0 ? q0 : q1;
  const std::uint64_t quarter = state.dim() >> 2;
  // Interleaved offsets of the four amplitudes of one quad. Matrix row and
  // column index is (bit(q1) << 1) | bit(q0).
  const std::uint64_t o1 = std::uint64_t{2} << q0;
  const std::uint64_t o2 = std::uint64_t{2} << q1;
  const std::uint64_t o3 = o1 + o2;
  double mr[16];
  double mi[16];
  for (std::size_t i = 0; i < 16; ++i) {
    mr[i] = m.m[i].real();
    mi[i] = m.m[i].imag();
  }
  double* d = amp_data(state);
  for_two_target_runs(lo, hi, 0, quarter,
                      [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* b0 = d + 2 * base;
    double* b1 = b0 + o1;
    double* b2 = b0 + o2;
    double* b3 = b0 + o3;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      const double a0r = b0[s * j], a0i = b0[s * j + 1];
      const double a1r = b1[s * j], a1i = b1[s * j + 1];
      const double a2r = b2[s * j], a2i = b2[s * j + 1];
      const double a3r = b3[s * j], a3i = b3[s * j + 1];
      b0[s * j] = (mul_sub(mr[0], a0r, mi[0] * a0i) +
                   mul_sub(mr[1], a1r, mi[1] * a1i)) +
                  (mul_sub(mr[2], a2r, mi[2] * a2i) +
                   mul_sub(mr[3], a3r, mi[3] * a3i));
      b0[s * j + 1] = (mul_add(mr[0], a0i, mi[0] * a0r) +
                       mul_add(mr[1], a1i, mi[1] * a1r)) +
                      (mul_add(mr[2], a2i, mi[2] * a2r) +
                       mul_add(mr[3], a3i, mi[3] * a3r));
      b1[s * j] = (mul_sub(mr[4], a0r, mi[4] * a0i) +
                   mul_sub(mr[5], a1r, mi[5] * a1i)) +
                  (mul_sub(mr[6], a2r, mi[6] * a2i) +
                   mul_sub(mr[7], a3r, mi[7] * a3i));
      b1[s * j + 1] = (mul_add(mr[4], a0i, mi[4] * a0r) +
                       mul_add(mr[5], a1i, mi[5] * a1r)) +
                      (mul_add(mr[6], a2i, mi[6] * a2r) +
                       mul_add(mr[7], a3i, mi[7] * a3r));
      b2[s * j] = (mul_sub(mr[8], a0r, mi[8] * a0i) +
                   mul_sub(mr[9], a1r, mi[9] * a1i)) +
                  (mul_sub(mr[10], a2r, mi[10] * a2i) +
                   mul_sub(mr[11], a3r, mi[11] * a3i));
      b2[s * j + 1] = (mul_add(mr[8], a0i, mi[8] * a0r) +
                       mul_add(mr[9], a1i, mi[9] * a1r)) +
                      (mul_add(mr[10], a2i, mi[10] * a2r) +
                       mul_add(mr[11], a3i, mi[11] * a3r));
      b3[s * j] = (mul_sub(mr[12], a0r, mi[12] * a0i) +
                   mul_sub(mr[13], a1r, mi[13] * a1i)) +
                  (mul_sub(mr[14], a2r, mi[14] * a2i) +
                   mul_sub(mr[15], a3r, mi[15] * a3i));
      b3[s * j + 1] = (mul_add(mr[12], a0i, mi[12] * a0r) +
                       mul_add(mr[13], a1i, mi[13] * a1r)) +
                      (mul_add(mr[14], a2i, mi[14] * a2r) +
                       mul_add(mr[15], a3i, mi[15] * a3r));
    }
  });
}

void apply_x(StateVector& state, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_x: target out of range");
  const std::uint64_t half = state.dim() >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  double* d = amp_data(state);
  for_target_runs(target, 0, half,
                  [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p0 = d + 2 * base;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* q0 = p0 + j * s;
      double* q1 = q0 + stride2;
      const double r = q0[0], i = q0[1];
      q0[0] = q1[0];
      q0[1] = q1[1];
      q1[0] = r;
      q1[1] = i;
    }
  });
}

void apply_y(StateVector& state, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_y: target out of range");
  const std::uint64_t half = state.dim() >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  double* d = amp_data(state);
  // |0⟩ ↦ i|1⟩, |1⟩ ↦ -i|0⟩: new a0 = -i*a1 = (a1i, -a1r); new a1 = i*a0.
  for_target_runs(target, 0, half,
                  [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p0 = d + 2 * base;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* q0 = p0 + j * s;
      double* q1 = q0 + stride2;
      const double a0r = q0[0], a0i = q0[1];
      q0[0] = q1[1];
      q0[1] = -q1[0];
      q1[0] = -a0i;
      q1[1] = a0r;
    }
  });
}

void apply_z(StateVector& state, qubit_t target) {
  apply_phase(state, target, cplx(-1.0, 0.0));
}

void apply_h(StateVector& state, qubit_t target) {
  static const Mat2 kHadamard = [] {
    Mat2 h;
    const double inv_sqrt2 = 0.7071067811865475244;
    h.at(0, 0) = inv_sqrt2;
    h.at(0, 1) = inv_sqrt2;
    h.at(1, 0) = inv_sqrt2;
    h.at(1, 1) = -inv_sqrt2;
    return h;
  }();
  apply_mat2(state, kHadamard, target);
}

void apply_phase(StateVector& state, qubit_t target, cplx phase) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_phase: target out of range");
  const std::uint64_t half = state.dim() >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  const double pr = phase.real();
  const double pi = phase.imag();
  double* d = amp_data(state);
  for_target_runs(target, 0, half,
                  [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p1 = d + 2 * base + stride2;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* q1 = p1 + j * s;
      const double ar = q1[0], ai = q1[1];
      q1[0] = mul_sub(pr, ar, pi * ai);
      q1[1] = mul_add(pr, ai, pi * ar);
    }
  });
}

void apply_cx(StateVector& state, qubit_t control, qubit_t target) {
  RQSIM_CHECK(control < state.num_qubits() && target < state.num_qubits() &&
                  control != target,
              "apply_cx: bad operands");
  const qubit_t lo = control < target ? control : target;
  const qubit_t hi = control < target ? target : control;
  const std::uint64_t quarter = state.dim() >> 2;
  const std::uint64_t coff = std::uint64_t{2} << control;
  const std::uint64_t toff = std::uint64_t{2} << target;
  double* d = amp_data(state);
  for_two_target_runs(lo, hi, 0, quarter,
                      [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p0 = d + 2 * base + coff;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* q0 = p0 + j * s;
      double* q1 = q0 + toff;
      const double r = q0[0], i = q0[1];
      q0[0] = q1[0];
      q0[1] = q1[1];
      q1[0] = r;
      q1[1] = i;
    }
  });
}

void apply_cz(StateVector& state, qubit_t a, qubit_t b) {
  apply_cphase(state, a, b, cplx(-1.0, 0.0));
}

void apply_cphase(StateVector& state, qubit_t a, qubit_t b, cplx phase) {
  RQSIM_CHECK(a < state.num_qubits() && b < state.num_qubits() && a != b,
              "apply_cphase: bad operands");
  const qubit_t lo = a < b ? a : b;
  const qubit_t hi = a < b ? b : a;
  const std::uint64_t quarter = state.dim() >> 2;
  const std::uint64_t both = (std::uint64_t{2} << a) + (std::uint64_t{2} << b);
  const double pr = phase.real();
  const double pi = phase.imag();
  double* d = amp_data(state);
  for_two_target_runs(lo, hi, 0, quarter,
                      [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p = d + 2 * base + both;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* q = p + j * s;
      const double ar = q[0], ai = q[1];
      q[0] = mul_sub(pr, ar, pi * ai);
      q[1] = mul_add(pr, ai, pi * ar);
    }
  });
}

void apply_swap(StateVector& state, qubit_t a, qubit_t b) {
  RQSIM_CHECK(a < state.num_qubits() && b < state.num_qubits() && a != b,
              "apply_swap: bad operands");
  const qubit_t lo = a < b ? a : b;
  const qubit_t hi = a < b ? b : a;
  const std::uint64_t quarter = state.dim() >> 2;
  const std::uint64_t aoff = std::uint64_t{2} << a;
  const std::uint64_t boff = std::uint64_t{2} << b;
  double* d = amp_data(state);
  for_two_target_runs(lo, hi, 0, quarter,
                      [=](std::uint64_t base, std::uint64_t run, auto step) {
    double* p = d + 2 * base;
    constexpr std::uint64_t s = 2 * decltype(step)::value;
    for (std::uint64_t j = 0; j < run; ++j) {
      double* qa = p + j * s + aoff;
      double* qb = p + j * s + boff;
      const double r = qa[0], i = qa[1];
      qa[0] = qb[0];
      qa[1] = qb[1];
      qb[0] = r;
      qb[1] = i;
    }
  });
}

void apply_ccx(StateVector& state, qubit_t c1, qubit_t c2, qubit_t target) {
  RQSIM_CHECK(c1 < state.num_qubits() && c2 < state.num_qubits() &&
                  target < state.num_qubits() && c1 != c2 && c1 != target &&
                  c2 != target,
              "apply_ccx: bad operands");
  // Iterate the dim/8 indices with all three operand bits cleared, then set
  // both control bits — touches exactly the amplitudes that move.
  unsigned b0 = c1, b1 = c2, b2 = target;
  if (b0 > b1) std::swap(b0, b1);
  if (b1 > b2) std::swap(b1, b2);
  if (b0 > b1) std::swap(b0, b1);
  const std::uint64_t eighth = state.dim() >> 3;
  const std::uint64_t cbits = (std::uint64_t{1} << c1) | (std::uint64_t{1} << c2);
  const std::uint64_t tbit = std::uint64_t{1} << target;
  auto& amps = state.amplitudes();
  for (std::uint64_t k = 0; k < eighth; ++k) {
    const std::uint64_t i0 = insert_three_zero_bits(k, b0, b1, b2) | cbits;
    std::swap(amps[i0], amps[i0 | tbit]);
  }
}

namespace detail {

void count_gate_dispatch(GateKind kind) {
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
      pauli1q.increment();
      return;
    case GateKind::H:
      h1q.increment();
      return;
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::P:
      phase1q.increment();
      return;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U2:
    case GateKind::U3:
      mat2.increment();
      return;
    case GateKind::CX:
      cx.increment();
      return;
    case GateKind::CZ:
    case GateKind::CP:
      diag2q.increment();
      return;
    case GateKind::SWAP:
      swap2q.increment();
      return;
    case GateKind::CCX:
      ccx.increment();
      return;
  }
}

void apply_gate_uncounted(StateVector& state, const Gate& gate) {
  static const cplx kSPhase(0.0, 1.0);
  static const cplx kSdgPhase(0.0, -1.0);
  static const cplx kTPhase = std::exp(cplx(0.0, kPi / 4.0));
  static const cplx kTdgPhase = std::exp(cplx(0.0, -kPi / 4.0));
  switch (gate.kind) {
    case GateKind::X:
      apply_x(state, gate.qubits[0]);
      return;
    case GateKind::Y:
      apply_y(state, gate.qubits[0]);
      return;
    case GateKind::Z:
      apply_z(state, gate.qubits[0]);
      return;
    case GateKind::H:
      apply_h(state, gate.qubits[0]);
      return;
    case GateKind::S:
      apply_phase(state, gate.qubits[0], kSPhase);
      return;
    case GateKind::Sdg:
      apply_phase(state, gate.qubits[0], kSdgPhase);
      return;
    case GateKind::T:
      apply_phase(state, gate.qubits[0], kTPhase);
      return;
    case GateKind::Tdg:
      apply_phase(state, gate.qubits[0], kTdgPhase);
      return;
    case GateKind::P:
      apply_phase(state, gate.qubits[0], std::exp(cplx(0.0, gate.params[0])));
      return;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U2:
    case GateKind::U3:
      apply_mat2(state, gate_matrix1(gate), gate.qubits[0]);
      return;
    case GateKind::CX:
      apply_cx(state, gate.qubits[0], gate.qubits[1]);
      return;
    case GateKind::CZ:
      apply_cz(state, gate.qubits[0], gate.qubits[1]);
      return;
    case GateKind::CP:
      apply_cphase(state, gate.qubits[0], gate.qubits[1],
                   std::exp(cplx(0.0, gate.params[0])));
      return;
    case GateKind::SWAP:
      apply_swap(state, gate.qubits[0], gate.qubits[1]);
      return;
    case GateKind::CCX:
      apply_ccx(state, gate.qubits[0], gate.qubits[1], gate.qubits[2]);
      return;
  }
  RQSIM_CHECK(false, "apply_gate: unhandled gate kind");
}

}  // namespace detail

void apply_gate(StateVector& state, const Gate& gate) {
  detail::count_gate_dispatch(gate.kind);
  state_sweeps.increment();
  detail::apply_gate_uncounted(state, gate);
}

void apply_fused(StateVector& state, const FusedProgram& program) {
  for (const FusedOp& op : program.ops) {
    switch (op.kind) {
      case FusedOp::Kind::kGate:
        apply_gate(state, op.gate);
        break;
      case FusedOp::Kind::kMat2:
        fused_mat2.increment();
        state_sweeps.increment();
        apply_mat2(state, op.m2, op.q_lo);
        break;
      case FusedOp::Kind::kMat4:
        fused_mat4.increment();
        state_sweeps.increment();
        apply_mat4(state, op.m4, op.q_hi, op.q_lo);
        break;
    }
  }
}

void apply_pauli(StateVector& state, Pauli p, qubit_t target) {
  switch (p) {
    case Pauli::I:
      return;
    case Pauli::X:
      state_sweeps.increment();
      apply_x(state, target);
      return;
    case Pauli::Y:
      state_sweeps.increment();
      apply_y(state, target);
      return;
    case Pauli::Z:
      state_sweeps.increment();
      apply_z(state, target);
      return;
  }
}

void apply_pauli_pair(StateVector& state, PauliPair pair, qubit_t q1, qubit_t q0) {
  apply_pauli(state, pair.p1, q1);
  apply_pauli(state, pair.p0, q0);
}

}  // namespace rqsim
