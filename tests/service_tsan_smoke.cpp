// ThreadSanitizer smoke test for the threaded subsystems (plain main, no
// gtest).
//
// ASan catches lifetime bugs; the schedule-invariant layer catches plan
// corruption; the remaining failure mode of a "production-scale, heavy
// traffic" service is a data race. This binary hammers the two places the
// library owns cross-thread shared state:
//
//   1. SimService — concurrent submit / cancel / poll / stats / wait from
//      several client threads against a live worker pool, plus a shutdown
//      that races both the destructor and in-flight submissions (the
//      historical double-join deadlock path).
//   2. Concurrent merged batches — two service workers each run a merged
//      prefix tree at once (framed jobs on one, two-thread jobs on the
//      other), so the shared sink's per-job slots and each job's run-scoped
//      telemetry are written from several threads.
//   3. Concurrent parallel runs — two run_noisy calls, each with its own
//      tree-executor workers applying gates at the same time.
//
// Under the `tsan` preset the whole tree is instrumented; in the tier-1
// flow the threaded sources are recompiled into this target with
// -fsanitize=thread (tests/CMakeLists.txt), so every mutex/condvar
// protocol in service/ and sched/ is checked on every run.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/qft.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "sched/runner.hpp"
#include "service/service.hpp"
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

rqsim::JobSpec make_spec(std::size_t trials, std::uint64_t seed) {
  rqsim::JobSpec spec;
  spec.circuit = rqsim::decompose_to_cx_basis(rqsim::make_qft(4));
  spec.noise = rqsim::NoiseModel::uniform(4, 0.01, 0.04, 0.02);
  spec.config.num_trials = trials;
  spec.config.seed = seed;
  spec.config.verify_plans = true;  // verification also runs on worker threads
  return spec;
}

// Several client threads submit, cancel, poll and wait against a shared
// service while its worker pool drains the queue.
void stress_submit_cancel() {
  rqsim::ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  rqsim::SimService service(config);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kJobsPerClient = 6;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, c] {
      std::vector<std::uint64_t> mine;
      for (std::size_t i = 0; i < kJobsPerClient; ++i) {
        const rqsim::SubmitOutcome outcome =
            service.try_submit(make_spec(60, 100 * c + i));
        if (outcome.status == rqsim::SubmitStatus::kAccepted) {
          mine.push_back(outcome.job_id);
        }
        // Cancel every third job; racing the workers' claim is the point —
        // either side may win, both must be race-free.
        if (i % 3 == 2 && !mine.empty()) {
          service.cancel(mine.back());
        }
        (void)service.stats();
        if (!mine.empty()) {
          (void)service.poll(mine.front());
        }
      }
      for (const std::uint64_t id : mine) {
        const rqsim::JobResult result = service.wait(id);
        SMOKE_CHECK(result.state == rqsim::JobState::kDone ||
                    result.state == rqsim::JobState::kCancelled);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  const rqsim::ServiceStats stats = service.stats();
  SMOKE_CHECK(stats.completed + stats.cancelled == kClients * kJobsPerClient);
}

// shutdown() racing concurrent submitters and a second shutdown (the
// destructor): the join phase must be single-winner and submissions must
// resolve to accepted-and-run or kShutdown, never a hang.
void stress_shutdown_race() {
  for (int round = 0; round < 3; ++round) {
    rqsim::SimService service({.num_workers = 2, .queue_capacity = 16,
                               .max_batch_jobs = 4});
    std::thread submitter([&service] {
      for (int i = 0; i < 8; ++i) {
        (void)service.try_submit(make_spec(40, i));
      }
    });
    std::thread stopper([&service] { service.shutdown(); });
    submitter.join();
    stopper.join();
    // Destructor performs the second, racing shutdown.
  }
}

// Two workers drain merged batches concurrently. Each worker first claims
// a long blocker job (a baseline run, never batch-compatible); the framed
// and two-thread jobs queued behind them merge into one batch per class,
// and the two batches run at the same time.
void stress_concurrent_merged_batches() {
  rqsim::SimService service({.num_workers = 2, .queue_capacity = 64,
                             .max_batch_jobs = 8});
  std::uint64_t blockers[2];
  for (std::uint64_t& blocker : blockers) {
    rqsim::JobSpec spec = make_spec(4000, 7);
    spec.config.mode = rqsim::ExecutionMode::kBaseline;
    blocker = service.submit(spec);
  }
  for (const std::uint64_t blocker : blockers) {
    while (service.poll(blocker)->state == rqsim::JobState::kQueued) {
      std::this_thread::yield();
    }
  }
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 4; ++i) {
    rqsim::JobSpec framed = make_spec(80 + 10 * i, 200 + i);
    framed.circuit = rqsim::decompose_to_cx_basis(rqsim::make_ghz(4));  // Clifford
    framed.config.frame_collapse = true;
    framed.config.observables = {rqsim::PauliString::from_label("ZZII")};
    ids.push_back(service.submit(framed));
    rqsim::JobSpec threaded = make_spec(60 + 10 * i, 300 + i);
    threaded.config.num_threads = 2;
    threaded.config.observables = {rqsim::PauliString::from_label("IXXI")};
    ids.push_back(service.submit(threaded));
  }
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const rqsim::JobResult result = service.wait(ids[j]);
    SMOKE_CHECK(result.state == rqsim::JobState::kDone);
    SMOKE_CHECK(result.run.telemetry.measured);
    SMOKE_CHECK(result.run.telemetry.measured_ops == result.run.ops);
    if (j % 2 == 0) {
      SMOKE_CHECK(result.run.telemetry.frame_collapsed_trials > 0);
    }
  }
  for (const std::uint64_t blocker : blockers) {
    SMOKE_CHECK(service.wait(blocker).state == rqsim::JobState::kDone);
  }
  SMOKE_CHECK(service.stats().merged_batches >= 1);
}

// Two parallel runs at once, each with its own tree-executor workers.
void stress_parallel_runs() {
  const rqsim::Circuit circuit = rqsim::decompose_to_cx_basis(rqsim::make_qft(6));
  const rqsim::NoiseModel noise = rqsim::NoiseModel::uniform(6, 0.01, 0.04, 0.02);

  rqsim::NoisyRunConfig config;
  config.num_trials = 150;
  config.num_threads = 2;
  config.verify_plans = true;
  std::thread racer([&] {
    rqsim::NoisyRunConfig other = config;
    other.seed = 11;
    const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, other);
    SMOKE_CHECK(result.ops > 0);
  });
  const rqsim::NoisyRunResult result = rqsim::run_noisy(circuit, noise, config);
  SMOKE_CHECK(result.ops > 0);
  racer.join();
}

}  // namespace

int main() {
  stress_submit_cancel();
  stress_shutdown_race();
  stress_concurrent_merged_batches();
  stress_parallel_runs();
  if (failures == 0) {
    std::printf("service_tsan_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "service_tsan_smoke: %d check(s) failed\n", failures);
  return 1;
}
