// Pauli-frame subtree collapse: gate classification caches, bitwise
// identity of frame-collapsed runs against run_noisy on the Table I suite,
// budget refusals under a tight MSV budget, and the PlanVerifier's
// frame-algebra pass (including the adversarial T-gate fixture).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_circuits/bv.hpp"
#include "bench_circuits/ghz.hpp"
#include "bench_circuits/suite.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "transpile/decompose.hpp"
#include "trial/frame.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {
namespace {

constexpr GateKind kAllKinds[] = {
    GateKind::X,  GateKind::Y,   GateKind::Z,  GateKind::H,  GateKind::S,
    GateKind::Sdg, GateKind::T,  GateKind::Tdg, GateKind::RX, GateKind::RY,
    GateKind::RZ, GateKind::P,   GateKind::U2, GateKind::U3, GateKind::CX,
    GateKind::CZ, GateKind::CP,  GateKind::SWAP, GateKind::CCX};

Gate make_kind(GateKind kind) {
  const int params = gate_num_params(kind);
  switch (gate_arity(kind)) {
    case 1:
      return Gate::make1(kind, 0, params > 0 ? 0.3 : 0.0,
                         params > 1 ? 0.7 : 0.0, params > 2 ? 1.1 : 0.0);
    case 2:
      return Gate::make2(kind, 0, 1, params > 0 ? 0.3 : 0.0);
    default:
      return Gate::make3(kind, 0, 1, 2);
  }
}

// ---------------------------------------------------------------------------
// Classification caches.

TEST(Frame, ClassificationCachedOnGate) {
  // The factories fill the cached flag/table pointer; Circuit::add
  // normalizes gates built without the factories (the qasm importer path).
  EXPECT_TRUE(Gate::make1(GateKind::H, 0).is_clifford());
  EXPECT_NE(Gate::make1(GateKind::H, 0).pauli_conjugation(), nullptr);
  EXPECT_FALSE(Gate::make1(GateKind::T, 0).is_clifford());
  EXPECT_EQ(Gate::make1(GateKind::T, 0).pauli_conjugation(), nullptr);

  Circuit circuit(1);
  Gate raw;
  raw.kind = GateKind::S;
  raw.qubits = {0, 0, 0};
  circuit.add(raw);  // bypasses the factories
  EXPECT_TRUE(circuit.gates().back().is_clifford());
  EXPECT_EQ(circuit.gates().back().pauli_conjugation(),
            &pauli_conjugation_table(GateKind::S));
}

// Pauli of a 2-bit (x | z<<1) symplectic code: I=0, X=1, Z=2, Y=3.
Mat2 code_matrix(unsigned code) {
  static const Pauli by_code[] = {Pauli::I, Pauli::X, Pauli::Z, Pauli::Y};
  return pauli_matrix(by_code[code & 3u]);
}

TEST(Frame, ConjugationTablesMatchNumericConjugation) {
  // Every table entry re-derived as the matrix conjugation G·P·G† and
  // matched up to the global phase the frame representation drops.
  for (const GateKind kind : kAllKinds) {
    if (!gate_kind_is_clifford(kind)) {
      continue;
    }
    const PauliConjugation& table = pauli_conjugation_table(kind);
    const Gate gate = make_kind(kind);
    if (gate.arity() == 1) {
      const Mat2 u = gate_matrix1(gate);
      for (unsigned in = 0; in < 4; ++in) {
        const Mat2 conjugated = u * code_matrix(in) * u.dagger();
        EXPECT_TRUE(equal_up_to_global_phase(conjugated, code_matrix(table.one[in])))
            << gate_name(kind) << " code " << in;
      }
    } else {
      const Mat4 u = gate_matrix2(gate);
      for (unsigned in = 0; in < 16; ++in) {
        // kron's first factor is qubits[0]'s Pauli — the high-order bit of
        // gate_matrix2's operand convention; code bits 0-1 are qubits[0].
        const Mat4 pauli = kron(code_matrix(in & 3u), code_matrix((in >> 2) & 3u));
        const unsigned out = table.two[in];
        const Mat4 expected = kron(code_matrix(out & 3u), code_matrix((out >> 2) & 3u));
        EXPECT_TRUE(equal_up_to_global_phase(u * pauli * u.dagger(), expected))
            << gate_name(kind) << " code " << in;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise identity of frame-collapsed runs.

NoisyRunConfig frame_config(std::size_t trials, std::size_t threads,
                            std::uint64_t seed = 5) {
  NoisyRunConfig config;
  config.num_trials = trials;
  config.num_threads = threads;
  config.seed = seed;
  config.frame_collapse = true;
  return config;
}

TEST(Frame, BitwiseHistogramsOnTable1SuiteAcrossThreads) {
  // The headline guarantee of the collapse: for every Table I benchmark
  // and every thread count, frame-mode histograms are bitwise identical to
  // the baseline loop's and the unframed tree's, while matvec ops only ever
  // shrink — by at least a quarter on the Clifford-dominated entries.
  struct Input {
    std::size_t trials;
    std::uint64_t seed;
    std::size_t tree_threads;
    std::vector<std::size_t> framed_threads;
  };
  const Input inputs[] = {{400, 5, 2, {1, 2, 8}}, {512, 7, 4, {4}}};
  const DeviceModel dev = yorktown_device();
  for (const Input& in : inputs) {
    SCOPED_TRACE(std::to_string(in.trials) + " trials, seed " + std::to_string(in.seed));
    for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
      NoisyRunConfig baseline_config = frame_config(in.trials, 1, in.seed);
      baseline_config.mode = ExecutionMode::kBaseline;
      const NoisyRunResult baseline =
          run_noisy(entry.compiled, dev.noise, baseline_config);
      NoisyRunConfig unframed_config = frame_config(in.trials, in.tree_threads, in.seed);
      unframed_config.frame_collapse = false;
      const NoisyRunResult tree = run_noisy(entry.compiled, dev.noise, unframed_config);
      for (const std::size_t threads : in.framed_threads) {
        const NoisyRunResult framed = run_noisy(entry.compiled, dev.noise,
                                                frame_config(in.trials, threads, in.seed));
        EXPECT_EQ(framed.histogram, baseline.histogram)
            << entry.name << " @ " << threads << " threads";
        EXPECT_EQ(framed.histogram, tree.histogram)
            << entry.name << " @ " << threads << " threads";
        EXPECT_LE(framed.ops, tree.ops) << entry.name << " @ " << threads << " threads";
        if (entry.name == "rb" || entry.name == "bv4" || entry.name == "bv5") {
          EXPECT_LE(framed.ops * 4, tree.ops * 3) << entry.name;
          EXPECT_GT(framed.telemetry.frame_collapsed_trials, 0u) << entry.name;
        }
      }
    }
  }
}

TEST(Frame, GhzFramesCutAQuarterOfTreeOps) {
  // Every GHZ path below an error is CX-only, so most error subtrees
  // collapse: the framed run samples the tree's histogram bit for bit with
  // at least a quarter fewer matvec ops.
  const Circuit circuit = decompose_to_cx_basis(make_ghz(10));
  const NoiseModel noise = NoiseModel::uniform(10, 0.02, 0.08, 0.02);
  NoisyRunConfig config = frame_config(512, 4, 7);
  config.frame_collapse = false;
  const NoisyRunResult tree = run_noisy(circuit, noise, config);
  const NoisyRunResult framed = run_noisy(circuit, noise, frame_config(512, 4, 7));
  EXPECT_EQ(framed.histogram, tree.histogram);
  EXPECT_LE(framed.ops * 4, tree.ops * 3)
      << framed.ops << " framed vs " << tree.ops << " tree ops";
}

TEST(Frame, ObservableMeansBitwiseWithFrames) {
  // Z-only frames sign observable terms by exact ±1 multiplies, so the
  // means stay bitwise equal to the unframed run — not merely close.
  const Circuit circuit = decompose_to_cx_basis(make_ghz(4));
  const NoiseModel noise = NoiseModel::uniform(4, 0.03, 0.1, 0.02);
  NoisyRunConfig serial_config;
  serial_config.num_trials = 600;
  serial_config.seed = 9;
  serial_config.observables = {PauliString::from_label("ZZZZ"),
                               PauliString::from_label("ZIIZ")};
  const NoisyRunResult serial = run_noisy(circuit, noise, serial_config);
  for (const std::size_t threads : {1u, 4u}) {
    NoisyRunConfig config = frame_config(600, threads, 9);
    config.observables = serial_config.observables;
    const NoisyRunResult framed = run_noisy(circuit, noise, config);
    ASSERT_EQ(framed.observable_means.size(), serial.observable_means.size());
    for (std::size_t k = 0; k < serial.observable_means.size(); ++k) {
      EXPECT_EQ(framed.observable_means[k], serial.observable_means[k])
          << "observable " << k << " @ " << threads << " threads";
    }
    EXPECT_EQ(framed.histogram, serial.histogram);
    EXPECT_GT(framed.telemetry.frame_collapsed_trials, 0u);
  }
}

TEST(Frame, CollapsedTreeShrinksPlanAndPeakDemand) {
  // The frame pass removes whole subtrees, so the collapsed tree plans
  // fewer ops and forks and never more peak demand — which is what the
  // prewarm sizing (tree peak_demand) and the MSV bound consume.
  const Circuit circuit = decompose_to_cx_basis(make_ghz(6));
  const NoiseModel noise = NoiseModel::uniform(6, 0.02, 0.08, 0.02);
  const CircuitContext ctx(circuit);
  Rng rng(11);
  std::vector<Trial> trials = generate_trials(circuit, ctx.layering, noise, 800, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);

  const ScheduleOptions unframed_options;
  ScheduleOptions framed_options;
  framed_options.frame_collapse = true;
  const ExecTree unframed = build_exec_tree(ctx, trials, unframed_options);
  const ExecTree framed = build_exec_tree(ctx, trials, framed_options);

  EXPECT_GT(framed.frame_collapsed_trials, 0u);
  EXPECT_TRUE(framed.has_frames());
  EXPECT_LT(framed.planned_ops, unframed.planned_ops);
  EXPECT_LT(framed.planned_forks, unframed.planned_forks);
  EXPECT_LE(framed.peak_demand, unframed.peak_demand);

  // The verifier proves the framed plan and certifies the exact saving.
  const PlanVerifier verifier(ctx, framed_options);
  const PlanProof proof = verifier.verify_tree_plan(trials, framed);
  ASSERT_TRUE(proof.ok) << proof.diagnostic;
  EXPECT_EQ(proof.frame_trials, framed.frame_collapsed_trials);
  EXPECT_EQ(proof.frame_ops, framed.planned_frame_ops);
  EXPECT_EQ(proof.cached_ops, framed.planned_ops);
  EXPECT_EQ(proof.frame_saved_ops, unframed.planned_ops - framed.planned_ops);
  EXPECT_GT(proof.frame_saved_ops, 0u);
}

// ---------------------------------------------------------------------------
// Budget refusals under a tight MSV budget.

TEST(Frame, BudgetRefusalsRunInline) {
  // At max_states 2 the token bank refuses forks, and each refused chunk
  // runs inline on its parent's thread: bitwise results, the sequential
  // schedule's op count, and a live-state peak inside the budget.
  struct Input {
    unsigned qubits;
    std::size_t trials;
    std::uint64_t seed;
    std::vector<std::size_t> threads;
  };
  const Input inputs[] = {{6, 600, 13, {4, 8}}, {10, 512, 7, {4}}};
  for (const Input& in : inputs) {
    SCOPED_TRACE("ghz:" + std::to_string(in.qubits));
    const Circuit circuit = decompose_to_cx_basis(make_ghz(in.qubits));
    const NoiseModel noise = NoiseModel::uniform(in.qubits, 0.02, 0.08, 0.02);
    NoisyRunConfig config;
    config.num_trials = in.trials;
    config.seed = in.seed;
    config.max_states = 2;
    const NoisyRunResult counted = analyze_noisy(circuit, noise, config);
    NoisyRunConfig baseline_config = config;
    baseline_config.mode = ExecutionMode::kBaseline;
    const NoisyRunResult baseline = run_noisy(circuit, noise, baseline_config);
    for (const std::size_t threads : in.threads) {
      config.num_threads = threads;
      const NoisyRunResult result = run_noisy(circuit, noise, config);
      EXPECT_EQ(result.histogram, baseline.histogram) << threads << " threads";
      EXPECT_EQ(result.ops, counted.ops) << threads << " threads";
      EXPECT_GT(result.telemetry.inline_fallbacks, 0u) << threads << " threads";
      EXPECT_LE(result.telemetry.peak_live_states, 2u) << threads << " threads";
    }
  }
}

TEST(Frame, FramesComposeWithBudget) {
  // Frames + tight budget together: collapse shrinks the tree, the budget
  // refuses some of the remaining forks, and the result is still bitwise.
  const Circuit circuit = decompose_to_cx_basis(make_ghz(6));
  const NoiseModel noise = NoiseModel::uniform(6, 0.02, 0.08, 0.02);
  NoisyRunConfig config = frame_config(600, 8, 13);
  config.max_states = 2;
  NoisyRunConfig baseline_config = config;
  baseline_config.mode = ExecutionMode::kBaseline;
  baseline_config.num_threads = 1;
  const NoisyRunResult baseline = run_noisy(circuit, noise, baseline_config);
  NoisyRunConfig unframed_config = config;
  unframed_config.frame_collapse = false;
  const NoisyRunResult counted = analyze_noisy(circuit, noise, unframed_config);
  const NoisyRunResult framed = run_noisy(circuit, noise, config);
  EXPECT_EQ(framed.histogram, baseline.histogram);
  EXPECT_LT(framed.ops, counted.ops);
  EXPECT_GT(framed.telemetry.frame_collapsed_trials, 0u);
}

// ---------------------------------------------------------------------------
// Adversarial PlanVerifier fixtures.

TEST(Frame, VerifierRejectsFramePropagatedThroughTGate) {
  // Hand-corrupt a tree: claim an X-error trial collapsed to a frame even
  // though its downstream path crosses a T gate (which blocks an X frame).
  // The numeric frame-algebra pass must reject it, naming the trial.
  Circuit circuit(1);
  circuit.add(Gate::make1(GateKind::H, 0));  // layer 0
  circuit.add(Gate::make1(GateKind::T, 0));  // layer 1
  circuit.add(Gate::make1(GateKind::H, 0));  // layer 2
  circuit.measure(0);
  const CircuitContext ctx(circuit);

  // Trial 0: X error after layer 0's gate; trial 1: error-free.
  ErrorEvent event;
  event.layer = 0;
  event.position = 0;  // the H gate on qubit 0
  event.op = static_cast<std::uint8_t>(Pauli::X);
  std::vector<Trial> trials(2);
  trials[0].events = {event};
  reorder_trials(trials);
  Rng rng(1);
  assign_measurement_seeds(trials, rng);
  const std::size_t error_trial = trials[0].events.empty() ? 1 : 0;

  ScheduleOptions options;
  options.frame_collapse = true;
  ExecTree tree = build_exec_tree(ctx, trials, options);
  // The builder must refuse this collapse itself (T blocks the X frame)...
  ASSERT_EQ(tree.frame_collapsed_trials, 0u);
  const PlanVerifier verifier(ctx, options);
  ASSERT_TRUE(verifier.verify_tree_plan(trials, tree).ok);

  // ...so force it by hand: drop the trial's replay subtree and record a
  // bogus frame for it on the root.
  ASSERT_GT(tree.nodes.size(), 1u);
  tree.nodes.resize(1);
  TreeNode& root = tree.nodes.front();
  root.subtree_end = 1;
  FrameTrial bogus;
  bogus.trial = error_trial;
  bogus.frame_x = 1;  // "X survived to the end" — it cannot have
  bogus.frame_ops = 1;
  tree.frames.push_back(bogus);
  root.frames_end = root.frames_begin + 1;
  tree.frame_collapsed_trials = 1;
  tree.planned_frame_ops = 1;

  const PlanProof proof = verifier.verify_tree_plan(trials, tree);
  ASSERT_FALSE(proof.ok);
  EXPECT_EQ(proof.violating_trial, error_trial);
  EXPECT_NE(proof.diagnostic.find("frame algebra violation"), std::string::npos)
      << proof.diagnostic;
  EXPECT_THROW(verify_tree_plan_or_throw(ctx, TrialSet(trials), tree, options, "frame_test"),
               Error);
}

TEST(Frame, VerifierRejectsCorruptedFrameMaskAndCounters) {
  const Circuit circuit = decompose_to_cx_basis(make_ghz(5));
  const NoiseModel noise = NoiseModel::uniform(5, 0.03, 0.1, 0.02);
  const CircuitContext ctx(circuit);
  Rng rng(17);
  std::vector<Trial> trials = generate_trials(circuit, ctx.layering, noise, 500, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  ScheduleOptions options;
  options.frame_collapse = true;
  const ExecTree tree = build_exec_tree(ctx, trials, options);
  ASSERT_GT(tree.frame_collapsed_trials, 0u);
  const PlanVerifier verifier(ctx, options);
  ASSERT_TRUE(verifier.verify_tree_plan(trials, tree).ok);

  // Flip one recorded frame bit: the numeric re-derivation must disagree.
  ExecTree bad_mask = tree;
  bad_mask.frames.front().frame_z ^= 1;
  const PlanProof mask_proof = verifier.verify_tree_plan(trials, bad_mask);
  EXPECT_FALSE(mask_proof.ok);
  EXPECT_NE(mask_proof.violating_trial, kNoIndex);

  // Inflate the tree's collapse counter: the totals cross-check fails.
  ExecTree bad_count = tree;
  bad_count.frame_collapsed_trials += 1;
  EXPECT_FALSE(verifier.verify_tree_plan(trials, bad_count).ok);
}

}  // namespace
}  // namespace rqsim
