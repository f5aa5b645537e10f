// Golden hashes of trial generation, reorder and prefix-tree construction.
//
// The hashes below were recorded through the std::vector<Trial> entry
// points (generate_trials, assign_measurement_seeds, reorder_trials,
// build_exec_tree) before trials moved into the flat TrialSet and the
// reorder became one bucket pass that emits the tree. They pin:
//
//   - every generated trial, in generation order: its events, measurement
//     flip mask and measurement seed;
//   - every reordered trial, in reorder order;
//   - every ExecTree node field (kind, parent, entry event, event depth,
//     entry frontier, trial ranges, tail, children, frame trials,
//     peak_demand, subtree_ops), a per-node bit the test derives from the
//     circuit (see permutation_suffix), and the tree totals, for frames off
//     and on x max_states {0, 2, 3}. The nodes were records with parent,
//     trial and child lists when the hashes were recorded; OldNodeWords
//     derives those words from the flat depth-first layout.
//
// Inputs: the twelve Table I circuits on yorktown at two seeds, qft:8 on
// the artificial device, and qft5 on a yorktown model with uniform, biased
// idle noise. The hashes are integer-only and hold on every target.
//
// The TrialSet production path must reproduce the same hashes: its
// generator, and order_trials over the unordered generated set, which
// sorts and emits the tree in one pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "noise/devices.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sched/tree.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_event(std::uint64_t h, const ErrorEvent& e) {
  h = fnv_word(h, e.layer);
  h = fnv_word(h, e.position);
  return fnv_word(h, e.op);
}

/// Over a std::vector<Trial> or a TrialSet.
template <class Trials>
std::uint64_t hash_trials(const Trials& trials) {
  std::uint64_t h = fnv_word(kFnvBasis, trials.size());
  for (const auto& t : trials) {
    h = fnv_word(h, t.events.size());
    for (const ErrorEvent& e : t.events) {
      h = hash_event(h, e);
    }
    h = fnv_word(h, t.meas_flip_mask);
    h = fnv_word(h, t.meas_seed);
  }
  return h;
}

/// suffix[l]: layers [l, num_layers) hold only X, Y, Z, S, Sdg, CX, CZ,
/// SWAP or CCX gates.
std::vector<bool> permutation_suffix(const CircuitContext& ctx) {
  const std::size_t num_layers = ctx.num_layers();
  std::vector<bool> suffix(num_layers + 1, true);
  for (std::size_t l = num_layers; l-- > 0;) {
    bool ok = suffix[l + 1];
    for (const gate_index_t g : ctx.layering.layers[l]) {
      switch (ctx.circuit.gates()[g].kind) {
        case GateKind::X:
        case GateKind::Y:
        case GateKind::Z:
        case GateKind::S:
        case GateKind::Sdg:
        case GateKind::CX:
        case GateKind::CZ:
        case GateKind::SWAP:
        case GateKind::CCX:
          break;
        default:
          ok = false;
      }
    }
    suffix[l] = ok;
  }
  return suffix;
}

/// The node words the hashes were recorded over, derived from the flat
/// tree: the parent index (-1 for the root), and for a replay its trial in
/// `trial` with begin, end, tail_begin and tail_end all 0.
struct OldNodeWords {
  std::uint64_t parent = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t trial = 0;
  std::uint64_t tail_begin = 0;
  std::uint64_t tail_end = 0;
};

std::vector<OldNodeWords> old_node_words(const ExecTree& tree) {
  std::vector<OldNodeWords> words(tree.nodes.size());
  std::vector<std::size_t> open;  // ancestors of the current node
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& node = tree.nodes[i];
    while (!open.empty() && tree.nodes[open.back()].subtree_end <= i) {
      open.pop_back();
    }
    OldNodeWords& w = words[i];
    w.parent = open.empty() ? ~std::uint64_t{0} : open.back();
    if (node.kind == TreeNode::Kind::kReplay) {
      w.trial = node.begin;
    } else {
      w.begin = node.begin;
      w.end = node.end;
      w.tail_begin = node.tail_begin;
      w.tail_end = node.end;
    }
    open.push_back(i);
  }
  return words;
}

std::uint64_t hash_tree(const CircuitContext& ctx, const ExecTree& tree) {
  const std::vector<bool> suffix = permutation_suffix(ctx);
  const std::vector<OldNodeWords> words = old_node_words(tree);
  std::uint64_t h = fnv_word(kFnvBasis, tree.nodes.size());
  h = fnv_word(h, tree.num_trials);
  h = fnv_word(h, tree.planned_ops);
  h = fnv_word(h, tree.planned_forks);
  h = fnv_word(h, tree.peak_demand);
  h = fnv_word(h, tree.frame_collapsed_trials);
  h = fnv_word(h, tree.planned_frame_ops);
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& node = tree.nodes[i];
    const OldNodeWords& w = words[i];
    h = fnv_word(h, static_cast<std::uint64_t>(node.kind));
    h = fnv_word(h, w.parent);
    h = hash_event(h, node.entry_event);
    h = fnv_word(h, node.event_depth);
    h = fnv_word(h, node.entry_frontier);
    h = fnv_word(h, w.begin);
    h = fnv_word(h, w.end);
    h = fnv_word(h, w.trial);
    h = fnv_word(h, w.tail_begin);
    h = fnv_word(h, w.tail_end);
    std::vector<std::uint64_t> children;
    for (std::size_t c = i + 1; c < node.subtree_end; c = tree.nodes[c].subtree_end) {
      children.push_back(c);
    }
    h = fnv_word(h, children.size());
    for (const std::uint64_t c : children) {
      h = fnv_word(h, c);
    }
    const std::span<const FrameTrial> frames = tree.frames_of(node);
    h = fnv_word(h, frames.size());
    for (const FrameTrial& ft : frames) {
      h = fnv_word(h, ft.trial);
      h = fnv_word(h, ft.frame_x);
      h = fnv_word(h, ft.frame_z);
      h = fnv_word(h, ft.frame_ops);
    }
    // The recorded hashes include one bit per node: 1 for a replay node
    // whose layers [entry_frontier, num_layers) hold only the gates
    // permutation_suffix lists, else 0. It depends only on the node kind,
    // entry_frontier and the circuit, which the hash already pins, so it
    // keeps the constants valid and checks nothing of its own.
    const bool permutation_leaf =
        node.kind == TreeNode::Kind::kReplay && suffix[node.entry_frontier];
    h = fnv_word(h, permutation_leaf ? 1 : 0);
    h = fnv_word(h, node.peak_demand);
    h = fnv_word(h, node.subtree_ops);
  }
  return h;
}

/// One input: a compiled circuit, a noise model, a trial count and seed.
struct GoldenInput {
  std::string name;
  Circuit circuit;
  NoiseModel noise;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
};

std::vector<GoldenInput> golden_inputs() {
  std::vector<GoldenInput> inputs;
  const DeviceModel yorktown = yorktown_device();
  const std::vector<BenchmarkEntry> suite = make_table1_suite(yorktown);
  for (const BenchmarkEntry& entry : suite) {
    for (const std::uint64_t seed : {11u, 2027u}) {
      inputs.push_back({entry.name + "@" + std::to_string(seed), entry.compiled,
                        yorktown.noise, 4096, seed});
    }
  }
  inputs.push_back({"qft:8@artificial", decompose_to_cx_basis(make_qft(8)),
                    artificial_device(8, 0.01).noise, 3000, 5});
  NoiseModel idle = yorktown.noise;
  idle.set_uniform_idle_rate(0.004);
  for (qubit_t q = 0; q < idle.num_qubits(); ++q) {
    idle.set_idle_pauli_weights(q, 0.1, 0.2, 0.7);
  }
  for (const BenchmarkEntry& entry : suite) {
    if (entry.name == "qft5") {
      inputs.push_back({"qft5@idle", entry.compiled, idle, 4096, 99});
    }
  }
  return inputs;
}

/// Recorded hashes per input: generated trials, reordered trials, and the
/// six trees in (frames, max_states) order: (off, 0) (off, 2) (off, 3)
/// (on, 0) (on, 2) (on, 3).
struct GoldenRow {
  const char* name;
  std::uint64_t generated;
  std::uint64_t reordered;
  std::uint64_t trees[6];
};

constexpr GoldenRow kGolden[] = {
    {"rb@11", 0xcd48f3eaf550db7eULL, 0xa33a7cb90c96cbd6ULL,
     {0xf4da7f0eb898edffULL, 0xa580368525bbf8caULL, 0xf4da7f0eb898edffULL,
      0x485497d3a4e59797ULL, 0x485497d3a4e59797ULL, 0x485497d3a4e59797ULL}},
    {"rb@2027", 0xc46b73b2712dda73ULL, 0x46e4f01de473cadfULL,
     {0x3032a2fc2f8e5443ULL, 0x47d3f2e1d5edcabbULL, 0x3032a2fc2f8e5443ULL,
      0xd6b4d5f9f426a51fULL, 0xd6b4d5f9f426a51fULL, 0xd6b4d5f9f426a51fULL}},
    {"grover@11", 0xb1e0fadab9f4f140ULL, 0x6fc25f9c8456c510ULL,
     {0xc10390fc4eb48f50ULL, 0xa33800532985ee45ULL, 0x8fb356da13e01818ULL,
      0x0d498c4edc044455ULL, 0x9061297cd563c1c2ULL, 0xd68dc4f543010eabULL}},
    {"grover@2027", 0xf0d284f93c382884ULL, 0xaceacc3bd236eae0ULL,
     {0x614bf52eccfff58aULL, 0x634ff34b4bf2dfa5ULL, 0x1c9082c2d841ae99ULL,
      0xb507fec5ec8e99d4ULL, 0x66a2cb7817ffed61ULL, 0x5604ce56ac2f250cULL}},
    {"wstate@11", 0xe9550099ed1edd8aULL, 0x5d32e435ac27466eULL,
     {0xa3c06976461d0b03ULL, 0x95fa3a22c72adb9bULL, 0x84405eb5b1506d16ULL,
      0x54fd6b13baafb7acULL, 0x56ab3249969f3509ULL, 0x54fd6b13baafb7acULL}},
    {"wstate@2027", 0xd6bca167a2a85facULL, 0x63d6387f95550648ULL,
     {0x52176854fa11e8efULL, 0x1c30f7d1158b0737ULL, 0x52176854fa11e8efULL,
      0x2c1fedda2824755fULL, 0x2642fb0cefea3b06ULL, 0x2c1fedda2824755fULL}},
    {"7x1mod15@11", 0x8e11a80d0f75e84dULL, 0x45b1af7c124b13f1ULL,
     {0xe85be4de74d4c9e6ULL, 0x38fc15e47f2cbc4cULL, 0xce69c53f9b4af9c6ULL,
      0x11396875820ebd47ULL, 0x11396875820ebd47ULL, 0x11396875820ebd47ULL}},
    {"7x1mod15@2027", 0x1406af5ec9036912ULL, 0x0d27db68f3e142daULL,
     {0x6c0d85fa5bf1dd81ULL, 0x46f08cc2f6051eb8ULL, 0xc3c12ba452b25cc1ULL,
      0xadf68653166ffcadULL, 0xadf68653166ffcadULL, 0xadf68653166ffcadULL}},
    {"bv4@11", 0xf82f92bf50ca6871ULL, 0x41421c4a869487a5ULL,
     {0xc4bbc261e0831d6dULL, 0x8de7e54f980eb178ULL, 0x2d089a44a25b485bULL,
      0x97e6867de3614a65ULL, 0xda7a7da71bbb9db8ULL, 0x55b8fa0f307e3637ULL}},
    {"bv4@2027", 0xf0992b67c4d8730bULL, 0x2f28c21c63f8e7d7ULL,
     {0x4155f220204c57abULL, 0x8e594d207fa9c907ULL, 0x79a1b88887bd75e6ULL,
      0x1251b3064d638132ULL, 0x0f36ce090bac0f32ULL, 0x1251b3064d638132ULL}},
    {"bv5@11", 0xf6d9f6cf80558932ULL, 0x279a25ccb3f7ba7aULL,
     {0x6c7431e83468bc87ULL, 0x5c799ac8cfe95338ULL, 0xabd98778cf5ca7e9ULL,
      0x15d017ef722f721fULL, 0xcb67e5f6dae61625ULL, 0x15d017ef722f721fULL}},
    {"bv5@2027", 0xc31485cd4e6e0ba7ULL, 0x79652c736affd20bULL,
     {0x2c7cfeb6432affe2ULL, 0xaac3d8fe53697314ULL, 0x5cb54a61b91f0971ULL,
      0x31badfdc6095b9b2ULL, 0x3ad86a241555cdc9ULL, 0x31badfdc6095b9b2ULL}},
    {"qft4@11", 0x88719f5246d02120ULL, 0x53c5d314d0a7a07cULL,
     {0x4269d9c024e7f88bULL, 0x0d6ad89c13d73075ULL, 0x511036347eaad3e7ULL,
      0xa8624d1fecbb443dULL, 0x04a9e6a7420104e7ULL, 0x546d6c3ca9dc994cULL}},
    {"qft4@2027", 0x391b0f10a84425d4ULL, 0xff4eff3407b449bcULL,
     {0x8d4ba8541a2e019bULL, 0xf2fee81c394d8385ULL, 0xd5c80d4471bd2676ULL,
      0x7d5d7df902e4c6ebULL, 0xc79b3743584711ceULL, 0x506981f3c1775f76ULL}},
    {"qft5@11", 0x4d71d7da5cd9fbb1ULL, 0xe9c12a8b80def2a9ULL,
     {0xe7b177bc21de401aULL, 0xf729985ea630969fULL, 0x08cbd6a62f3a0f61ULL,
      0xef0f87e364cfe8f5ULL, 0xeb23a8a69e9d7e9aULL, 0xdcaf95c0e1223c9cULL}},
    {"qft5@2027", 0x4e7a88a3e8ff6094ULL, 0x51b8bb7e43938d50ULL,
     {0x5ffe7e780e536988ULL, 0xd2b143c28f078b8dULL, 0xf4223fd46a39caffULL,
      0x009a3fc5d7a9b127ULL, 0xe44024ecbf751c0fULL, 0x89529787058dd8d4ULL}},
    {"qv_n5d2@11", 0x460158ab87d80ee0ULL, 0x51198bf4c525afa4ULL,
     {0xf0960fa4bd6fcae0ULL, 0xd85642d71cad9264ULL, 0xe692eeff88240da0ULL,
      0xa5a951e624243929ULL, 0xde9cc20aff6b8e47ULL, 0xb5c20321d0244d2fULL}},
    {"qv_n5d2@2027", 0xd9e413a309120115ULL, 0x735890176eca5325ULL,
     {0xa21292d160929d45ULL, 0x22d739a04e2011b2ULL, 0xcd28b6dbc1c57270ULL,
      0x030d22aa9971873fULL, 0xd4b292dd752ab51eULL, 0x309ab55a006c8184ULL}},
    {"qv_n5d3@11", 0xc84b9f0a5e9e7d36ULL, 0xcfebdea9c62f62eaULL,
     {0xdf0bbdfc4633eda4ULL, 0xb4e4c135af29ceaeULL, 0xf13aa9ad9d80c008ULL,
      0x4f95981027297bacULL, 0x55f8f0784e8df598ULL, 0xfccfbb94b35ad101ULL}},
    {"qv_n5d3@2027", 0x8d71bb325904a4c6ULL, 0x46bc6b9620864ae2ULL,
     {0x3246faf268abf987ULL, 0x4838d26d114fb57cULL, 0x515b00daf0d0bcd9ULL,
      0x63f81f52058703c0ULL, 0x578b36fece9713e7ULL, 0xd7e8fa965c2e7dadULL}},
    {"qv_n5d4@11", 0xc945dd38921c8810ULL, 0x95702eddb3dee6f0ULL,
     {0x3502f9ccf2f33771ULL, 0xbea6808638bb2121ULL, 0xcec561bc93b98bf8ULL,
      0x4ca4ecb03f0d13d2ULL, 0x4f293dc4008264eeULL, 0x61b21e8880be3efbULL}},
    {"qv_n5d4@2027", 0x927ce4873d0a7eeaULL, 0xb23d9febdee34136ULL,
     {0xbd0d6069169d160dULL, 0x8e037a339021b93bULL, 0x6ba9d906a9e74513ULL,
      0x36c73d9294986fc0ULL, 0x108bb1e9c86cfdddULL, 0x9c34e55e9078ccbfULL}},
    {"qv_n5d5@11", 0x7b8444cddc23801dULL, 0xf866f2c5166412f5ULL,
     {0x84544315e0fc1491ULL, 0xca662ae95ffbdcbfULL, 0xeda2fde779d5e801ULL,
      0x0ef256edcd3cd0f6ULL, 0x953fe93cc78ffbd2ULL, 0x45768c782b738f9eULL}},
    {"qv_n5d5@2027", 0x811c3f9bf66a2214ULL, 0xd207064face21674ULL,
     {0xf7fe75bbae0c0b79ULL, 0x1092a198132ae654ULL, 0xdaec18efca630895ULL,
      0x216721e85bcd46f5ULL, 0x87695ec4aaa07a7cULL, 0xd31ef106d23eae43ULL}},
    {"qft:8@artificial", 0x13e31c91f2dac5e6ULL, 0xc072506054d48a5eULL,
     {0x6d1f9f368150503aULL, 0xfde5af451f40e8c4ULL, 0xc4cf9869169770afULL,
      0x38683e48b4f2166eULL, 0x1e737ef2d9a8ac3fULL, 0x5787655e151ee903ULL}},
    {"qft5@idle", 0xb09bf9aa9c6f62e2ULL, 0x60adc1dedbc1115eULL,
     {0xe03f3df1e36750fbULL, 0x1755a7c1927fb7f5ULL, 0xe25bf866421ffd74ULL,
      0x62ab80e69cc07dcaULL, 0x9b89b6bc8c999730ULL, 0xf4fd61de93bca9e4ULL}},
};

constexpr std::size_t kBudgets[] = {0, 2, 3};

TEST(TrialGolden, GenerationReorderAndTreesReproduceRecordedHashes) {
  const std::vector<GoldenInput> inputs = golden_inputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& in = inputs[i];
    const GoldenRow& row = kGolden[i];
    SCOPED_TRACE(in.name);
    EXPECT_EQ(in.name, row.name);
    const CircuitContext ctx(in.circuit);
    Rng rng(in.seed);
    std::vector<Trial> trials =
        generate_trials(in.circuit, ctx.layering, in.noise, in.trials, rng);
    assign_measurement_seeds(trials, rng);
    EXPECT_EQ(hash_trials(trials), row.generated)
        << std::hex << "generated 0x" << hash_trials(trials);
    reorder_trials(trials);
    EXPECT_EQ(hash_trials(trials), row.reordered)
        << std::hex << "reordered 0x" << hash_trials(trials);
    std::size_t cell = 0;
    for (const bool frames : {false, true}) {
      for (const std::size_t budget : kBudgets) {
        ScheduleOptions options;
        options.frame_collapse = frames;
        options.max_states = budget;
        const std::uint64_t h = hash_tree(ctx, build_exec_tree(ctx, trials, options));
        EXPECT_EQ(h, row.trees[cell])
            << std::hex << "tree " << cell << " 0x" << h;
        ++cell;
      }
    }
  }
}

TEST(TrialGolden, TrialSetPassReproducesRecordedHashes) {
  const std::vector<GoldenInput> inputs = golden_inputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& in = inputs[i];
    const GoldenRow& row = kGolden[i];
    SCOPED_TRACE(in.name);
    const CircuitContext ctx(in.circuit);
    Rng rng(in.seed);
    TrialSet trials = generate_trial_set(in.circuit, ctx.layering, in.noise, in.trials, rng);
    assign_measurement_seeds(trials, rng);
    EXPECT_EQ(hash_trials(trials), row.generated);
    std::size_t cell = 0;
    for (const bool frames : {false, true}) {
      for (const std::size_t budget : kBudgets) {
        ScheduleOptions options;
        options.frame_collapse = frames;
        options.max_states = budget;
        const OrderedTrials ordered = order_trials(ctx, trials, options);
        EXPECT_EQ(hash_trials(ordered.trials), row.reordered) << "cell " << cell;
        EXPECT_EQ(hash_tree(ctx, ordered.tree), row.trees[cell]) << "cell " << cell;
        ++cell;
      }
    }
  }
}

}  // namespace
}  // namespace rqsim
