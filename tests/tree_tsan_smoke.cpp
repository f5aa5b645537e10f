// ThreadSanitizer smoke test for the work-stealing prefix-tree executor
// (plain main, no gtest).
//
// The executor's risk surface is exactly the cross-thread machinery the
// sequential scheduler doesn't have: per-worker deques with steal-from-
// front, the banker token pool, the sharded buffer pool's global overflow
// list, the idle condvar, and concurrent sink writes into per-trial slots.
// This binary hammers all of them — repeated runs at several thread counts
// and MSV budgets, with and without fusion — and cross-checks that every
// run stays bitwise identical to the first (a race that perturbs results
// shows up here even if TSan's interleaving misses it).
//
// In the tier-1 flow the tree executor sources are recompiled into this
// target with -fsanitize=thread (tests/CMakeLists.txt); under the `tsan`
// preset the whole tree is instrumented.
#include <cstdio>

#include "bench_circuits/qft.hpp"
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

void stress_tree_executor() {
  const rqsim::Circuit circuit = rqsim::decompose_to_cx_basis(rqsim::make_qft(5));
  const rqsim::NoiseModel noise = rqsim::NoiseModel::uniform(5, 0.02, 0.08, 0.02);

  rqsim::NoisyRunConfig config;
  config.num_trials = 2000;
  config.num_threads = 1;
  config.seed = 7;
  const rqsim::NoisyRunResult reference = rqsim::run_noisy(circuit, noise, config);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    for (const std::size_t budget : {std::size_t{0}, std::size_t{4}}) {
      for (int rep = 0; rep < 3; ++rep) {
        rqsim::NoisyRunConfig run = config;
        run.num_threads = threads;
        run.max_states = budget;
        const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, run);
        SMOKE_CHECK(result.histogram == reference.histogram);
        SMOKE_CHECK(budget != 0 || result.ops == reference.ops);
      }
    }
  }

  // Fused advances: one FusionCache per worker, lazily memoizing — the
  // caches must never be shared across threads.
  rqsim::NoisyRunConfig fused = config;
  fused.num_threads = 8;
  fused.fuse_gates = true;
  const rqsim::NoisyRunResult fused_serial = [&] {
    rqsim::NoisyRunConfig one = fused;
    one.num_threads = 1;
    return rqsim::run_noisy(circuit, noise, one);
  }();
  for (int rep = 0; rep < 2; ++rep) {
    const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, fused);
    SMOKE_CHECK(result.histogram == fused_serial.histogram);
    SMOKE_CHECK(result.ops == fused_serial.ops);
  }
}

}  // namespace

int main() {
  stress_tree_executor();
  if (failures == 0) {
    std::printf("tree_tsan_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "tree_tsan_smoke: %d check(s) failed\n", failures);
  return 1;
}
