// ThreadSanitizer smoke test for the Pauli-frame collapse path of the tree
// executor (plain main, no gtest).
//
// Frame-collapsed trials finish on a *shared* end-of-circuit buffer: the
// sink reads one probability vector from many trials' sampling loops
// concurrently, and the frame counters are process-global telemetry. This
// binary hammers that path — frame-mode runs at several thread counts,
// with and without a tight MSV budget (whose refused forks run inline on
// the parent's thread) — and cross-checks every run stays bitwise
// identical to the single-threaded reference (a race that perturbs
// results shows up here even if TSan's interleaving misses it).
//
// In the tier-1 flow the executor sources are recompiled into this target
// with -fsanitize=thread (tests/CMakeLists.txt); under the `tsan` preset
// the whole tree is instrumented.
#include <cstdio>

#include "bench_circuits/bv.hpp"
#include "bench_circuits/ghz.hpp"
#include "noise/noise_model.hpp"
#include "sched/runner.hpp"
#include "transpile/decompose.hpp"

namespace {

int failures = 0;

#define SMOKE_CHECK(cond)                                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

void stress_one(const rqsim::Circuit& circuit, const rqsim::NoiseModel& noise) {
  rqsim::NoisyRunConfig config;
  config.num_trials = 2000;
  config.num_threads = 1;
  config.seed = 7;
  config.frame_collapse = true;
  const rqsim::NoisyRunResult reference = rqsim::run_noisy(circuit, noise, config);
  SMOKE_CHECK(reference.telemetry.frame_collapsed_trials > 0);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    for (const std::size_t budget : {std::size_t{0}, std::size_t{2}}) {
      for (int rep = 0; rep < 3; ++rep) {
        rqsim::NoisyRunConfig run = config;
        run.num_threads = threads;
        run.max_states = budget;
        const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, run);
        SMOKE_CHECK(result.histogram == reference.histogram);
        // A budget shatters over-budget groups into replay leaves before
        // their deeper subgroups get a collapse chance, so the collapsed
        // count may legitimately shrink — but never grow.
        SMOKE_CHECK(result.telemetry.frame_collapsed_trials <=
                    reference.telemetry.frame_collapsed_trials);
        SMOKE_CHECK(budget != 0 ||
                    result.telemetry.frame_collapsed_trials ==
                        reference.telemetry.frame_collapsed_trials);
        SMOKE_CHECK(budget != 0 || result.ops == reference.ops);
      }
    }
  }
}

void stress_frame_paths() {
  // GHZ: every downstream path is CX-only, so frames collapse aggressively.
  stress_one(rqsim::decompose_to_cx_basis(rqsim::make_ghz(6)),
             rqsim::NoiseModel::uniform(6, 0.02, 0.08, 0.02));
  // BV: H layers conjugate X↔Z through the frame tables under concurrency.
  stress_one(rqsim::decompose_to_cx_basis(rqsim::make_bv(4, 0b1101)),
             rqsim::NoiseModel::uniform(5, 0.02, 0.08, 0.02));
}

}  // namespace

int main() {
  stress_frame_paths();
  if (failures == 0) {
    std::printf("frame_tsan_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "frame_tsan_smoke: %d check(s) failed\n", failures);
  return 1;
}
