// Golden hashes of run_noisy's results over the Table I suite.
//
// The hashes below were recorded before the statevector entry points were
// collapsed into one prefix-tree executor, from the entry point each cell
// used then: the sequential checkpoint-stack scheduler at one thread
// without frames, the parallel prefix tree otherwise. Every cell of
// threads {1, 2, 8} x frames {off, on} x max_states {0, 2} x fuse_gates
// {off, on}, with and without observables, must keep reproducing them:
//
//   - the histogram (outcome, count pairs in outcome order) of every cell;
//   - the observable means of every unfused cell.
//
// Every unfused cell also runs as the first job of a run_noisy_batch merge
// with an unrelated job (another seed, trial count and observable list) and
// must reproduce the same hashes, while the other job reproduces its own
// standalone run: merging never changes a job's bits.
//
// Fused observable means are not pinned: their last bits depend on how the
// compiler contracts the fusion engine's matrix arithmetic, which sanitizer
// instrumentation changes, and the budget changes which layer segments a
// replay leaf fuses. They must still be identical across threads and
// frames at each budget.
//
// The hashes assume fused multiply-add (the kernels spell it out
// explicitly); builds without FMA round differently and skip the comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "bench_circuits/suite.hpp"
#include "noise/devices.hpp"
#include "obs/pauli_string.hpp"
#include "sched/runner.hpp"

namespace rqsim {
namespace {

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
constexpr bool kHashesApply = true;
#else
constexpr bool kHashesApply = false;
#endif

struct GoldenRow {
  const char* name;
  std::uint64_t histogram;         // every cell
  std::uint64_t observable_means;  // unfused cells with observables
};

constexpr GoldenRow kGolden[] = {
    {"rb", 0x2c26d8c3bcc7be96ULL, 0x5bd952cb79472b19ULL},
    {"grover", 0x300fa94812586d57ULL, 0x1311ef332eb11077ULL},
    {"wstate", 0xe1bcf7d26bed2d05ULL, 0x2f125cea1c5d04b8ULL},
    {"7x1mod15", 0xe82c50315ba94778ULL, 0x926758fde5a8c501ULL},
    {"bv4", 0xa645e1b186a73156ULL, 0x88201fb960ff6465ULL},
    {"bv5", 0x7be2075cd7fa612eULL, 0x88201fb960ff6465ULL},
    {"qft4", 0x9f93ee8eec27ae2bULL, 0xffc77f581057698eULL},
    {"qft5", 0x6d7c606a39a757b7ULL, 0xeac3ce069db8b5d8ULL},
    {"qv_n5d2", 0xf2594369282d9c1dULL, 0x890968009bdca491ULL},
    {"qv_n5d3", 0x9c902e340a1afc0dULL, 0x2abd55e2fd2efd1eULL},
    {"qv_n5d4", 0x76f416ebe940c0b1ULL, 0x689ebee7486e43a1ULL},
    {"qv_n5d5", 0x6f1384e37fe04280ULL, 0x56737bf27067341bULL},
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_histogram(const OutcomeHistogram& histogram) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [outcome, count] : histogram) {
    h = fnv_word(h, outcome);
    h = fnv_word(h, count);
  }
  return h;
}

std::uint64_t hash_means(const std::vector<double>& means) {
  std::uint64_t h = kFnvBasis;
  for (const double mean : means) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &mean, sizeof(bits));
    h = fnv_word(h, bits);
  }
  return h;
}

TEST(RunGolden, Table1SuiteReproducesRecordedHashesInEveryCell) {
  if (!kHashesApply) {
    GTEST_SKIP() << "golden hashes were recorded with fused multiply-add";
  }
  const DeviceModel dev = yorktown_device();
  const std::vector<BenchmarkEntry> suite = make_table1_suite(dev);
  ASSERT_EQ(suite.size(), std::size(kGolden));
  const std::vector<PauliString> observables = {PauliString::from_label("ZZIII"),
                                                PauliString::from_label("IXYII")};
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const GoldenRow& row = kGolden[i];
    ASSERT_EQ(suite[i].name, row.name);
    for (const bool fuse : {false, true}) {
      for (const bool observed : {false, true}) {
        for (const std::size_t max_states : {std::size_t{0}, std::size_t{2}}) {
          // Fused means: the first cell of this budget is the reference.
          std::optional<std::uint64_t> fused_means;
          for (const bool frames : {false, true}) {
            // The other job of this budget's merged cells, and its results
            // when it runs alone.
            NoisyRunConfig unrelated;
            unrelated.num_trials = 170;
            unrelated.seed = 7;
            unrelated.max_states = max_states;
            unrelated.frame_collapse = frames;
            unrelated.verify_plans = true;
            unrelated.observables = {PauliString::from_label("XIIZI")};
            const NoisyRunResult unrelated_alone =
                run_noisy(suite[i].compiled, dev.noise, unrelated);
            for (const std::size_t threads : {1u, 2u, 8u}) {
              NoisyRunConfig config;
              config.num_trials = 300;
              config.seed = 2026;
              config.max_states = max_states;
              config.fuse_gates = fuse;
              config.frame_collapse = frames;
              config.num_threads = threads;
              config.verify_plans = true;
              if (observed) {
                config.observables = observables;
              }
              const NoisyRunResult result =
                  run_noisy(suite[i].compiled, dev.noise, config);
              const std::uint64_t means = hash_means(result.observable_means);
              if (fuse && !fused_means) {
                fused_means = means;
              }
              const std::uint64_t expected_means =
                  !observed ? kFnvBasis : fuse ? *fused_means : row.observable_means;
              EXPECT_EQ(hash_histogram(result.histogram), row.histogram)
                  << row.name << " fuse=" << fuse << " observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
              EXPECT_EQ(means, expected_means)
                  << row.name << " fuse=" << fuse << " observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
              if (fuse) {
                continue;
              }
              const NoisyBatchResult merged =
                  run_noisy_batch(suite[i].compiled, dev.noise, {&config, &unrelated});
              EXPECT_EQ(hash_histogram(merged.per_job[0].histogram), row.histogram)
                  << row.name << " merged observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
              EXPECT_EQ(hash_means(merged.per_job[0].observable_means), expected_means)
                  << row.name << " merged observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
              EXPECT_EQ(merged.per_job[1].histogram, unrelated_alone.histogram)
                  << row.name << " merged other job, observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
              EXPECT_EQ(merged.per_job[1].observable_means, unrelated_alone.observable_means)
                  << row.name << " merged other job, observables=" << observed
                  << " max_states=" << max_states << " frames=" << frames
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rqsim
