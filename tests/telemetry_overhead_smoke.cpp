// Disabled-telemetry overhead smoke (plain main, no gtest).
//
// The registry's promise: with the runtime flag off, every record collapses
// to one relaxed atomic-bool load and a branch, so an instrumented build
// running with telemetry disabled is indistinguishable from one without
// instrumentation. There is no uninstrumented build to A/B against, so this
// smoke bounds the same quantity in-process:
//
//  1. microbenchmark the disabled record path and assert its per-op cost is
//     a few nanoseconds — orders of magnitude below a matvec op, so even a
//     record per gate op cannot shift a run's wall time measurably;
//  2. run the same workload with telemetry disabled and enabled (best of
//     several reps) and warn if the disabled runs are slower beyond
//     scheduler noise — the disabled path should never cost more than the
//     full recording path.
//
// The microbenchmark carries the real assertion; the macro comparison is
// advisory (print-only) because two wall-clock measurements on shared CI
// machines can diverge on a scheduling hiccup without any regression.
#include <cstdio>

#include "bench_circuits/qft.hpp"
#include "noise/noise_model.hpp"
#include "sched/runner.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"
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

namespace telem = rqsim::telemetry;

double best_run_ms(const rqsim::Circuit& circuit, const rqsim::NoiseModel& noise,
                   int reps) {
  rqsim::NoisyRunConfig config;
  config.num_trials = 512;
  config.seed = 7;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const rqsim::telemetry::Stopwatch stopwatch;
    const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, config);
    const double ms = stopwatch.elapsed_ms();
    SMOKE_CHECK(result.ops > 0);
    if (rep == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

void check_disabled_record_cost() {
  telem::set_enabled(false);
  telem::Counter counter("overhead.disabled_counter");
  telem::Histogram hist("overhead.disabled_hist");
  constexpr std::uint64_t kIterations = 20'000'000;
  const telem::Stopwatch stopwatch;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    counter.add(i);
    hist.record(i);
  }
  const double ms = stopwatch.elapsed_ms();
  telem::set_enabled(true);
  const double ns_per_record = ms * 1e6 / (2.0 * kIterations);
  std::printf("disabled record path: %.2f ns/record\n", ns_per_record);
  // A relaxed load + branch is ~1 ns; 25 ns flags a lock or a fence having
  // crept into the disabled path while staying robust to slow CI hosts.
  SMOKE_CHECK(ns_per_record < 25.0);
  // Nothing may have been recorded.
  SMOKE_CHECK(counter.value() == 0);
}

void check_disabled_run_not_slower() {
  const rqsim::Circuit circuit = rqsim::decompose_to_cx_basis(rqsim::make_qft(5));
  const rqsim::NoiseModel noise = rqsim::NoiseModel::uniform(5, 0.01, 0.04, 0.02);

  telem::set_enabled(true);
  const double enabled_ms = best_run_ms(circuit, noise, 5);
  telem::set_enabled(false);
  const double disabled_ms = best_run_ms(circuit, noise, 5);
  telem::set_enabled(true);
  std::printf("run_noisy qft5/512: enabled %.2f ms, disabled %.2f ms\n",
              enabled_ms, disabled_ms);
  // Advisory only: two wall-clock measurements on a shared CI host can
  // diverge on a scheduling hiccup even with best-of-N, so a failed
  // comparison here prints a warning instead of failing the suite. The
  // microbenchmark above is the enforced gate on the disabled path.
  if (disabled_ms > enabled_ms * 1.5 + 5.0) {
    std::printf(
        "WARNING: disabled run slower than enabled beyond noise bound "
        "(%.2f ms > %.2f ms * 1.5 + 5.0) — advisory only, likely "
        "scheduler noise; investigate if persistent\n",
        disabled_ms, enabled_ms);
  }
}

}  // namespace

int main() {
  check_disabled_record_cost();
  check_disabled_run_not_slower();
  if (failures == 0) {
    std::printf("telemetry_overhead_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "telemetry_overhead_smoke: %d check(s) failed\n", failures);
  return 1;
}
