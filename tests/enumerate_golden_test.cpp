// Golden hashes of truncated exact enumeration.
//
// The values below were recorded before enumeration moved onto the prefix
// tree executor, from the sequential checkpoint-stack walker it used then.
// They pin, per case:
//
//   - enumerate_error_configurations: every configuration's events in the
//     returned (reorder) order, and the bits of every configuration
//     probability;
//   - truncated_exact_distribution: the bits of every outcome probability
//     and of covered_mass, plus ops, baseline_ops, max_live_states and
//     num_configurations.
//
// Each enumerated set's prefix tree must also pass the tree-plan verifier,
// at exactly the op count and MSV the distribution reports.
//
// Cases: the twelve Table I circuits on yorktown at k=1, qft5 on yorktown
// at k=2, a 3-qubit QFT with idle noise and biased single-qubit Pauli
// weights at k=2, ghz:3 on the artificial device at k=3, and qv_n5d3 on
// yorktown at k=0.
//
// The integer fields hold on every target. The floating-point hashes assume
// fused multiply-add (the kernels spell it out explicitly); builds without
// FMA round differently and skip them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_circuits/factory.hpp"
#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "noise/devices.hpp"
#include "sched/enumerate.hpp"
#include "sched/tree.hpp"
#include "transpile/decompose.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {
namespace {

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
constexpr bool kHashesApply = true;
#else
constexpr bool kHashesApply = false;
#endif

struct GoldenRow {
  const char* name;
  std::uint64_t configurations;  // order and events
  std::uint64_t configuration_probabilities;
  std::uint64_t distribution;  // outcome probabilities, then covered_mass
  opcount_t ops;
  opcount_t baseline_ops;
  std::size_t max_live_states;
  std::size_t num_configurations;
};

constexpr GoldenRow kGolden[] = {
    {"rb", 0xc89c6d84e69b1d14ULL, 0x809d8859b814d422ULL, 0xd9bf7eaa6a9b52c9ULL,
     224, 440, 2, 49},
    {"grover", 0x71098df6857635c7ULL, 0x5d9ed4e40be14104ULL, 0x39145de4c53ef3d4ULL,
     29472, 58599, 2, 586},
    {"wstate", 0x5f5fe90a6335e76bULL, 0x7f3524e1a4f81be6ULL, 0xa89e987935c95999ULL,
     293, 656, 2, 73},
    {"7x1mod15", 0x058196790793be51ULL, 0xf09289e23c583517ULL, 0xb005e9f95f3eeb51ULL,
     1184, 2264, 2, 151},
    {"bv4", 0xfd918ae46f6f717dULL, 0xa814eaf976084acfULL, 0x13efc7125e87a685ULL,
     1006, 2464, 2, 145},
    {"bv5", 0x977c9cce5b224a1bULL, 0xd74bba40397480e5ULL, 0x71af615de0224dd9ULL,
     1372, 3319, 2, 166},
    {"qft4", 0x3cdf866ce5a171f1ULL, 0xed6a9fe13608add1ULL, 0x9cb9d51dc15bd4dbULL,
     9286, 20068, 2, 427},
    {"qft5", 0x4406db3e350023daULL, 0x77095ac6c05b4191ULL, 0xf95290e64bbc67b3ULL,
     28624, 61279, 2, 766},
    {"qv_n5d2", 0x8dfe5725c2e50d21ULL, 0xbd91c7242ddc13cbULL, 0xa1b0cf6f9617d3c7ULL,
     8191, 16684, 2, 355},
    {"qv_n5d3", 0xb39326479cfce19aULL, 0xd83c159e9507eeb0ULL, 0x0fae09089627aec2ULL,
     13086, 28287, 2, 442},
    {"qv_n5d4", 0x69fc4c849bdbc52aULL, 0xdccc9f041f40af20ULL, 0x05af17dbbad14f53ULL,
     34823, 72383, 2, 754},
    {"qv_n5d5", 0x11480fc54166f70fULL, 0x59b4b37936ced5d1ULL, 0x66a35ea0bf27637dULL,
     42199, 87559, 2, 796},
    {"qft5@k2", 0x02624e6b5bb0c105ULL, 0x091924cb2e6b7522ULL, 0xbf61f9a8e042d486ULL,
     6991933, 23349184, 3, 288271},
    {"qft:3@biased-idle-k2", 0xd03c0439c5702928ULL, 0xa2ef1dae4fc9f3cfULL, 0xc2f1e156583c8fcaULL,
     305418, 1118541, 3, 48646},
    {"ghz:3@k3", 0xbff28fea378a81d9ULL, 0x0a92c0658e388440ULL, 0x2a0781b43d7d20b3ULL,
     1092, 5760, 4, 1024},
    {"qv_n5d3@k0", 0x392209f14dea4c24ULL, 0xb040f5e4db1f0835ULL, 0xd160394c6a2635b6ULL,
     63, 63, 1, 1},
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv_word(h, bits);
}

std::uint64_t hash_doubles(const std::vector<double>& values) {
  std::uint64_t h = fnv_word(kFnvBasis, values.size());
  for (const double v : values) {
    h = fnv_double(h, v);
  }
  return h;
}

std::uint64_t hash_configurations(const WeightedTrialSet& set) {
  std::uint64_t h = fnv_word(kFnvBasis, set.trials.size());
  for (std::size_t i = 0; i < set.trials.size(); ++i) {
    h = fnv_word(h, set.trials[i].events.size());
    for (const ErrorEvent& e : set.trials[i].events) {
      h = fnv_word(h, e.layer);
      h = fnv_word(h, e.position);
      h = fnv_word(h, e.op);
    }
  }
  return h;
}

struct GoldenInput {
  std::string name;
  Circuit circuit;
  NoiseModel noise;
  std::size_t max_errors = 0;
};

std::vector<GoldenInput> golden_inputs() {
  std::vector<GoldenInput> inputs;
  const DeviceModel yorktown = yorktown_device();
  const std::vector<BenchmarkEntry> suite = make_table1_suite(yorktown);
  for (const BenchmarkEntry& entry : suite) {
    inputs.push_back({entry.name, entry.compiled, yorktown.noise, 1});
  }
  for (const BenchmarkEntry& entry : suite) {
    if (entry.name == "qft5") {
      inputs.push_back({"qft5@k2", entry.compiled, yorktown.noise, 2});
    }
  }
  NoiseModel biased = NoiseModel::uniform(3, 0.02, 0.06, 0.03);
  biased.set_uniform_idle_rate(0.01);
  for (qubit_t q = 0; q < 3; ++q) {
    biased.set_single_pauli_weights(q, 0.6, 0.1 + 0.1 * q, 0.3);
  }
  inputs.push_back(
      {"qft:3@biased-idle-k2", decompose_to_cx_basis(make_qft(3)), biased, 2});
  inputs.push_back({"ghz:3@k3", decompose_to_cx_basis(make_named_circuit("ghz:3")),
                    artificial_device(3, 0.01).noise, 3});
  for (const BenchmarkEntry& entry : suite) {
    if (entry.name == "qv_n5d3") {
      inputs.push_back({"qv_n5d3@k0", entry.compiled, yorktown.noise, 0});
    }
  }
  return inputs;
}

TEST(EnumerateGolden, ReproducesRecordedHashes) {
  const std::vector<GoldenInput> inputs = golden_inputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& in = inputs[i];
    const GoldenRow& row = kGolden[i];
    ASSERT_EQ(in.name, row.name);

    const WeightedTrialSet set =
        enumerate_error_configurations(in.circuit, in.noise, in.max_errors);
    const TruncatedDistribution dist =
        truncated_exact_distribution(in.circuit, in.noise, in.max_errors);
    std::vector<double> dist_bits = dist.probabilities;
    dist_bits.push_back(dist.covered_mass);

    EXPECT_EQ(hash_configurations(set), row.configurations) << row.name;
    EXPECT_EQ(dist.ops, row.ops) << row.name;
    EXPECT_EQ(dist.baseline_ops, row.baseline_ops) << row.name;
    EXPECT_EQ(dist.max_live_states, row.max_live_states) << row.name;
    EXPECT_EQ(dist.num_configurations, row.num_configurations) << row.name;
    if (kHashesApply) {
      EXPECT_EQ(hash_doubles(set.probabilities), row.configuration_probabilities)
          << row.name;
      EXPECT_EQ(hash_doubles(dist_bits), row.distribution) << row.name;
    }

    const CircuitContext ctx(in.circuit);
    const ExecTree tree = build_exec_tree(ctx, set.trials);
    const PlanProof proof = PlanVerifier(ctx).verify_tree_plan(set.trials, tree);
    EXPECT_TRUE(proof.ok) << row.name << ": " << proof.diagnostic;
    EXPECT_EQ(proof.cached_ops, dist.ops) << row.name;
    EXPECT_EQ(proof.baseline_ops, dist.baseline_ops) << row.name;
    EXPECT_EQ(proof.max_live_states, dist.max_live_states) << row.name;
    EXPECT_EQ(proof.num_trials, dist.num_configurations) << row.name;
  }
}

}  // namespace
}  // namespace rqsim
