#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bench_circuits/factory.hpp"
#include "circuit/circuit.hpp"
#include "circuit/fusion.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "sched/plan.hpp"
#include "sim/gate_runs.hpp"
#include "sim/kernel_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/reference.hpp"
#include "sim/statevector.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {
namespace {

constexpr double kTol = 1e-10;

// ------------------------------------------------- blocked index iteration

TEST(BlockedIteration, SingleTargetRunsVisitExactPairIndices) {
  // The runs must enumerate, in order, the same base amplitude indices the
  // per-pair bit-insertion loop produces (runs yield interleaved-double
  // bases = 2 * amplitude index).
  for (unsigned n = 1; n <= 6; ++n) {
    const std::uint64_t half = (std::uint64_t{1} << n) >> 1;
    for (unsigned target = 0; target < n; ++target) {
      std::vector<std::uint64_t> got;
      for_target_runs(target, 0, half,
                      [&](std::uint64_t base, std::uint64_t run, auto step) {
                        constexpr std::uint64_t kStep = decltype(step)::value;
                        for (std::uint64_t j = 0; j < run; ++j) {
                          got.push_back(base + j * kStep);
                        }
                      });
      ASSERT_EQ(got.size(), half);
      for (std::uint64_t k = 0; k < half; ++k) {
        EXPECT_EQ(got[k], insert_zero_bit(k, target))
            << "n=" << n << " target=" << target << " k=" << k;
      }
    }
  }
}

TEST(BlockedIteration, TwoTargetRunsVisitExactQuadIndices) {
  for (unsigned n = 2; n <= 6; ++n) {
    const std::uint64_t quarter = (std::uint64_t{1} << n) >> 2;
    for (unsigned lo = 0; lo + 1 < n; ++lo) {
      for (unsigned hi = lo + 1; hi < n; ++hi) {
        std::vector<std::uint64_t> got;
        for_two_target_runs(lo, hi, 0, quarter,
                            [&](std::uint64_t base, std::uint64_t run, auto step) {
                              constexpr std::uint64_t kStep = decltype(step)::value;
                              for (std::uint64_t j = 0; j < run; ++j) {
                                got.push_back(base + j * kStep);
                              }
                            });
        ASSERT_EQ(got.size(), quarter);
        for (std::uint64_t k = 0; k < quarter; ++k) {
          EXPECT_EQ(got[k], insert_two_zero_bits(k, lo, hi))
              << "n=" << n << " lo=" << lo << " hi=" << hi << " k=" << k;
        }
      }
    }
  }
}

TEST(BlockedIteration, ArbitrarySubrangesPartitionTheSweep) {
  // Chunked traversal must cover exactly the same indices as one full
  // sweep, in the same per-chunk order.
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const unsigned n = 3 + static_cast<unsigned>(rng.uniform_int(5));
    const unsigned target = static_cast<unsigned>(rng.uniform_int(n));
    const std::uint64_t half = (std::uint64_t{1} << n) >> 1;
    const std::uint64_t cut1 = rng.uniform_int(half + 1);
    const std::uint64_t cut2 = cut1 + rng.uniform_int(half - cut1 + 1);
    std::vector<std::uint64_t> full;
    std::vector<std::uint64_t> chunked;
    auto append_to = [](std::vector<std::uint64_t>& out) {
      return [&out](std::uint64_t base, std::uint64_t run, auto step) {
        constexpr std::uint64_t kStep = decltype(step)::value;
        for (std::uint64_t j = 0; j < run; ++j) {
          out.push_back(base + j * kStep);
        }
      };
    };
    for_target_runs(target, 0, half, append_to(full));
    for_target_runs(target, 0, cut1, append_to(chunked));
    for_target_runs(target, cut1, cut2, append_to(chunked));
    for_target_runs(target, cut2, half, append_to(chunked));
    EXPECT_EQ(chunked, full) << "n=" << n << " target=" << target;
  }
}

// ----------------------------------------------------------- randomized fuzz

Gate random_gate(Rng& rng, unsigned n) {
  static const GateKind kOne[] = {GateKind::X,  GateKind::Y,   GateKind::Z,
                                  GateKind::H,  GateKind::S,   GateKind::Sdg,
                                  GateKind::T,  GateKind::Tdg, GateKind::RX,
                                  GateKind::RY, GateKind::RZ,  GateKind::P,
                                  GateKind::U2, GateKind::U3};
  static const GateKind kTwo[] = {GateKind::CX, GateKind::CZ, GateKind::CP,
                                  GateKind::SWAP};
  const double roll = rng.uniform();
  if (n >= 3 && roll < 0.08) {
    const auto a = static_cast<qubit_t>(rng.uniform_int(n));
    auto b = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    qubit_t c = a;
    while (c == a || c == b) {
      c = static_cast<qubit_t>(rng.uniform_int(n));
    }
    return Gate::make3(GateKind::CCX, a, b, c);
  }
  if (n >= 2 && roll < 0.45) {
    const GateKind kind = kTwo[rng.uniform_int(4)];
    const auto a = static_cast<qubit_t>(rng.uniform_int(n));
    auto b = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    return Gate::make2(kind, a, b, rng.uniform(0.0, 3.0));
  }
  const GateKind kind = kOne[rng.uniform_int(14)];
  return Gate::make1(kind, static_cast<qubit_t>(rng.uniform_int(n)),
                     rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0),
                     rng.uniform(0.0, 3.0));
}

std::vector<const Gate*> gate_pointers(const std::vector<Gate>& gates) {
  std::vector<const Gate*> out;
  out.reserve(gates.size());
  for (const Gate& g : gates) {
    out.push_back(&g);
  }
  return out;
}

// Small block geometry so the blocked path runs on fuzz-sized registers:
// blocks of 2 low + 3 high qubits, blocking from 6 qubits up.
constexpr unsigned kFuzzLow = 2;
constexpr unsigned kFuzzHigh = 3;

TEST(KernelFuzz, BlockedFusedAndThreadedMatchReference) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(1234 + seed);
    const unsigned n = 1 + static_cast<unsigned>(rng.uniform_int(10));
    Circuit c(n);
    const std::size_t len = 3 + rng.uniform_int(35);
    for (std::size_t i = 0; i < len; ++i) {
      c.add(random_gate(rng, n));
    }

    // Ground truth: the dense matrix-product reference simulator.
    const StateVector expected = reference_simulate(c);

    // Per-gate kernels.
    StateVector serial(n);
    for (const Gate& g : c.gates()) {
      apply_gate(serial, g);
    }
    EXPECT_LT(serial.max_abs_diff(expected), kTol) << "seed " << seed;

    // Fused program (random fusion behavior exercised by the random gate
    // mix; epsilon-equivalent by design).
    StateVector fused(n);
    apply_fused(fused, fuse_gate_sequence(c.gates()));
    EXPECT_LT(fused.max_abs_diff(expected), kTol) << "seed " << seed;

    // Cache-blocked gate runs: gather/scatter is exact and gates are never
    // reordered, so the result must be *identical* to the per-gate sweep,
    // also with several threads blocking at once (one scratch block each).
    const std::vector<const Gate*> gates = gate_pointers(c.gates());
    std::vector<StateVector> blocked;
    for (int t = 0; t < 3; ++t) {
      blocked.emplace_back(n);
    }
    std::vector<std::thread> threads;
    for (StateVector& s : blocked) {
      threads.emplace_back([&s, &gates] {
        detail::apply_gates_blocked(s, gates, kFuzzLow, kFuzzHigh);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const StateVector& s : blocked) {
      EXPECT_TRUE(s.bitwise_equal(serial)) << "seed " << seed << " n=" << n;
    }
  }
}

// ------------------------------------------------------------- gate runs

TEST(GateRuns, BlockedRunsMatchPerGateAtEveryGeometry) {
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    const unsigned n = 7 + static_cast<unsigned>(rng.uniform_int(4));
    std::vector<Gate> seq;
    for (int i = 0; i < 40; ++i) {
      seq.push_back(random_gate(rng, n));
    }
    StateVector start(n);
    for (std::size_t i = 0; i < start.dim(); ++i) {
      start[i] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    StateVector per_gate(n);
    per_gate.amplitudes() = start.amplitudes();
    for (const Gate& g : seq) {
      apply_gate(per_gate, g);
    }
    const std::vector<const Gate*> gates = gate_pointers(seq);
    for (unsigned low = 0; low + 3 < n; ++low) {
      StateVector blocked(n);
      blocked.amplitudes() = start.amplitudes();
      detail::apply_gates_blocked(blocked, gates, low, 3);
      EXPECT_TRUE(blocked.bitwise_equal(per_gate)) << "round " << round << " low " << low;
    }
  }
}

TEST(GateRuns, QuantumVolume24TakesAtMostTwentySweeps) {
  // One pass of the qv:24:1 workload: 120 gates, one DRAM sweep each before
  // blocking.
  for (const char* spec : {"qv:24:1", "qv:24:1:7", "qv:24:1:1000003"}) {
    const Circuit c = make_named_circuit(spec);
    const CircuitContext ctx(c);
    std::vector<const Gate*> gates;
    for (const auto& layer : ctx.layering.layers) {
      for (gate_index_t g : layer) {
        gates.push_back(&c.gates()[g]);
      }
    }
    ASSERT_EQ(gates.size(), 120u) << spec;
    EXPECT_LE(count_gate_sweeps(gates, c.num_qubits()), 20u) << spec;
  }
}

TEST(GateRuns, SweepCounterCountsRunsAndDispatchCountersCountGates) {
  if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
  Rng rng(5);
  const unsigned n = kBlockQubits + 1;
  std::vector<Gate> seq;
  for (int i = 0; i < 24; ++i) {
    seq.push_back(random_gate(rng, n));
  }
  const std::vector<const Gate*> gates = gate_pointers(seq);
  const std::size_t sweeps = count_gate_sweeps(gates, n);
  ASSERT_LT(sweeps, gates.size());
  const char* kOps[] = {"kernel.ops_pauli1q", "kernel.ops_h",    "kernel.ops_phase1q",
                        "kernel.ops_mat2",    "kernel.ops_cx",   "kernel.ops_diag2q",
                        "kernel.ops_swap",    "kernel.ops_ccx"};
  auto total_ops = [&] {
    std::uint64_t sum = 0;
    for (const char* name : kOps) {
      sum += telemetry::Counter(name).value();
    }
    return sum;
  };
  const telemetry::Counter sweep_counter("sim.state_sweeps");
  const std::uint64_t sweeps_before = sweep_counter.value();
  const std::uint64_t ops_before = total_ops();
  StateVector s(n);
  apply_gates(s, gates);
  EXPECT_EQ(sweep_counter.value() - sweeps_before, sweeps);
  EXPECT_EQ(total_ops() - ops_before, gates.size());
}

// ----------------------------------------------------------- SIMD mat2

TEST(SimdMat2, MatchesPortableLoopBitwiseAtEveryTarget) {
  Rng rng(9);
  for (unsigned n : {1u, 2u, 3u, 5u, 12u}) {
    StateVector start(n);
    for (std::size_t i = 0; i < start.dim(); ++i) {
      start[i] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    for (qubit_t t = 0; t < n; ++t) {
      const Mat2 u = random_unitary2(rng);
      StateVector simd(n);
      simd.amplitudes() = start.amplitudes();
      StateVector portable(n);
      portable.amplitudes() = start.amplitudes();
      apply_mat2(simd, u, t);
      apply_mat2_portable(portable, u, t);
      EXPECT_TRUE(simd.bitwise_equal(portable)) << "n=" << n << " target=" << t;
    }
  }
}

}  // namespace
}  // namespace rqsim
