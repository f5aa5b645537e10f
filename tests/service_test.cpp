#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/qft.hpp"
#include "bench_circuits/suite.hpp"
#include "common/error.hpp"
#include "noise/devices.hpp"
#include "noise/noise_model.hpp"
#include "obs/pauli_string.hpp"
#include "service/job.hpp"
#include "service/service.hpp"
#include "transpile/decompose.hpp"

namespace rqsim {
namespace {

JobSpec make_spec(std::size_t trials = 2000, std::uint64_t seed = 7,
                  unsigned qubits = 4) {
  JobSpec spec;
  spec.circuit = decompose_to_cx_basis(make_qft(qubits));
  spec.noise = NoiseModel::uniform(qubits, 0.01, 0.04, 0.02);
  spec.config.num_trials = trials;
  spec.config.seed = seed;
  return spec;
}

// GHZ is Clifford, so with `frames` most errors collapse into frames.
JobSpec make_ghz_spec(std::size_t trials, std::uint64_t seed, bool frames) {
  JobSpec spec;
  spec.circuit = decompose_to_cx_basis(make_ghz(4));
  spec.noise = NoiseModel::uniform(4, 0.03, 0.1, 0.02);
  spec.config.num_trials = trials;
  spec.config.seed = seed;
  spec.config.frame_collapse = frames;
  return spec;
}

ServiceConfig manual_config(std::size_t queue_capacity = 64,
                            std::size_t max_batch_jobs = 8) {
  ServiceConfig config;
  config.num_workers = 0;  // drain with run_pending() for determinism
  config.queue_capacity = queue_capacity;
  config.max_batch_jobs = max_batch_jobs;
  return config;
}

// ---------------------------------------------------------------------------
// Cross-job batching: the tentpole acceptance test.
// ---------------------------------------------------------------------------

TEST(ServiceBatch, TwoCompatibleJobsShareWorkAndStayBitwiseExact) {
  const JobSpec spec_a = make_spec(2500, /*seed=*/11);
  const JobSpec spec_b = make_spec(2500, /*seed=*/99);

  // Standalone references: what each job produces on its own.
  const NoisyRunResult solo_a = run_noisy(spec_a.circuit, spec_a.noise, spec_a.config);
  const NoisyRunResult solo_b = run_noisy(spec_b.circuit, spec_b.noise, spec_b.config);

  SimService service(manual_config());
  const std::uint64_t id_a = service.submit(spec_a);
  const std::uint64_t id_b = service.submit(spec_b);
  EXPECT_EQ(service.run_pending(), 2u);

  const std::optional<JobResult> result_a = service.result(id_a);
  const std::optional<JobResult> result_b = service.result(id_b);
  ASSERT_TRUE(result_a.has_value());
  ASSERT_TRUE(result_b.has_value());
  ASSERT_EQ(result_a->state, JobState::kDone);
  ASSERT_EQ(result_b->state, JobState::kDone);

  // Both jobs were merged into one batch of two.
  EXPECT_EQ(result_a->batch_size, 2u);
  EXPECT_EQ(result_b->batch_size, 2u);
  EXPECT_EQ(result_a->batch_ops, result_b->batch_ops);

  // The merged schedule does strictly less work than running both jobs
  // standalone — the cross-job sharing the batch planner exists for. It is
  // also strictly below 2x either single job's cost.
  EXPECT_LT(result_a->batch_ops, solo_a.ops + solo_b.ops);
  EXPECT_LT(result_a->batch_ops, 2 * solo_a.ops);
  EXPECT_LT(result_a->batch_ops, 2 * solo_b.ops);
  EXPECT_EQ(result_a->solo_ops, solo_a.ops);
  EXPECT_EQ(result_b->solo_ops, solo_b.ops);

  // Bitwise equivalence: each job's histogram is identical to the
  // standalone run with the same seed, despite executing interleaved with
  // the other job's trials.
  EXPECT_EQ(result_a->run.histogram, solo_a.histogram);
  EXPECT_EQ(result_b->run.histogram, solo_b.histogram);
  EXPECT_EQ(result_a->run.baseline_ops, solo_a.baseline_ops);
  EXPECT_EQ(result_b->run.baseline_ops, solo_b.baseline_ops);

  // Attributed ops telescope: the two shares sum exactly to the batch total.
  EXPECT_EQ(result_a->run.ops + result_b->run.ops, result_a->batch_ops);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.merged_batches, 1u);
  EXPECT_EQ(stats.merged_jobs, 2u);
  EXPECT_EQ(stats.merged_batch_ops, result_a->batch_ops);
  EXPECT_EQ(stats.merged_solo_ops, solo_a.ops + solo_b.ops);
}

TEST(ServiceBatch, ObservablesStayBitwiseExactInsideBatch) {
  JobSpec spec_a = make_spec(1200, 3);
  spec_a.config.observables = {PauliString::from_label("ZZII"),
                               PauliString::from_label("IXXI")};
  JobSpec spec_b = make_spec(800, 17);  // different trial count + observables
  spec_b.config.observables = {PauliString::from_label("ZIIZ")};

  const NoisyRunResult solo_a = run_noisy(spec_a.circuit, spec_a.noise, spec_a.config);
  const NoisyRunResult solo_b = run_noisy(spec_b.circuit, spec_b.noise, spec_b.config);

  SimService service(manual_config());
  const std::uint64_t id_a = service.submit(spec_a);
  const std::uint64_t id_b = service.submit(spec_b);
  service.run_pending();

  const JobResult result_a = *service.result(id_a);
  const JobResult result_b = *service.result(id_b);
  ASSERT_EQ(result_a.state, JobState::kDone);
  ASSERT_EQ(result_b.state, JobState::kDone);
  EXPECT_EQ(result_a.batch_size, 2u);

  ASSERT_EQ(result_a.run.observable_means.size(), 2u);
  ASSERT_EQ(result_b.run.observable_means.size(), 1u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(result_a.run.observable_means[k], solo_a.observable_means[k]);
  }
  EXPECT_EQ(result_b.run.observable_means[0], solo_b.observable_means[0]);
  EXPECT_EQ(result_a.run.histogram, solo_a.histogram);
  EXPECT_EQ(result_b.run.histogram, solo_b.histogram);
}

TEST(ServiceBatch, SingleJobMatchesRunNoisyExactly) {
  const JobSpec spec = make_spec(1500, 23);
  const NoisyRunResult solo = run_noisy(spec.circuit, spec.noise, spec.config);

  SimService service(manual_config());
  const std::uint64_t id = service.submit(spec);
  service.run_pending();

  const JobResult result = *service.result(id);
  ASSERT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.batch_size, 1u);
  EXPECT_EQ(result.run.ops, solo.ops);
  EXPECT_EQ(result.run.histogram, solo.histogram);
  EXPECT_EQ(result.batch_ops, solo.ops);
  EXPECT_EQ(result.solo_ops, solo.ops);
}

TEST(ServiceBatch, IncompatibleJobsDoNotMerge) {
  SimService service(manual_config());
  const std::uint64_t id_a = service.submit(make_spec(500, 1, /*qubits=*/4));
  const std::uint64_t id_b = service.submit(make_spec(500, 1, /*qubits=*/3));
  JobSpec different_noise = make_spec(500, 1, 4);
  different_noise.noise = NoiseModel::uniform(4, 0.02, 0.04, 0.02);
  const std::uint64_t id_c = service.submit(different_noise);
  service.run_pending();

  for (std::uint64_t id : {id_a, id_b, id_c}) {
    const JobResult result = *service.result(id);
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.batch_size, 1u);
  }
  EXPECT_EQ(service.stats().merged_batches, 0u);
}

TEST(ServiceBatch, MaxBatchJobsCapsTheMerge) {
  SimService service(manual_config(/*queue_capacity=*/64, /*max_batch_jobs=*/2));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ids.push_back(service.submit(make_spec(400, seed)));
  }
  service.run_pending();
  // Three compatible jobs with a cap of 2: one batch of two, one singleton.
  EXPECT_EQ(service.result(ids[0])->batch_size, 2u);
  EXPECT_EQ(service.result(ids[1])->batch_size, 2u);
  EXPECT_EQ(service.result(ids[2])->batch_size, 1u);
}

TEST(ServiceBatch, FrameJobsMergeAndCollapse) {
  // Framed jobs merge with each other: two `frames` jobs waiting in the
  // queue (as behind a busy worker) run as one frame-collapsed tree, and
  // each reproduces its standalone run_noisy bitwise. The first job
  // observes nothing, yet the merged tree must still keep X frames
  // uncollapsed for the second job's observables; XXXX anticommutes with
  // Z frames, so collapsed trials flip its sign.
  JobSpec first = make_ghz_spec(1500, 21, /*frames=*/true);
  JobSpec second = make_ghz_spec(1100, 22, /*frames=*/true);
  second.config.observables = {PauliString::from_label("IZZI"),
                               PauliString::from_label("XXXX")};

  SimService service(manual_config());
  const std::uint64_t ids[] = {service.submit(first), service.submit(second)};
  EXPECT_EQ(service.run_pending(), 2u);
  EXPECT_EQ(service.stats().merged_batches, 1u);
  for (const JobSpec* spec : {&first, &second}) {
    const JobResult result = *service.result(ids[spec == &first ? 0 : 1]);
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.batch_size, 2u);
    EXPECT_GT(result.run.telemetry.frame_collapsed_trials, 0u);
    const NoisyRunResult solo = run_noisy(spec->circuit, spec->noise, spec->config);
    EXPECT_GT(solo.telemetry.frame_collapsed_trials, 0u);
    EXPECT_EQ(result.run.histogram, solo.histogram);
    EXPECT_EQ(result.run.observable_means, solo.observable_means);
    EXPECT_EQ(result.solo_ops, solo.ops);
  }
}

TEST(ServiceBatch, MixedThreadCountsMergeAndStayBitwiseExact) {
  // Thread counts need not match: the merged tree runs on the largest one
  // and is bitwise identical at every count.
  JobSpec one = make_spec(1500, 31);
  one.config.observables = {PauliString::from_label("ZZII")};
  JobSpec four = make_spec(900, 32);
  four.config.num_threads = 4;
  four.config.observables = {PauliString::from_label("IXXI")};

  SimService service(manual_config());
  const std::uint64_t ids[] = {service.submit(one), service.submit(four)};
  EXPECT_EQ(service.run_pending(), 2u);
  EXPECT_EQ(service.stats().merged_batches, 1u);
  opcount_t attributed = 0;
  for (const JobSpec* spec : {&one, &four}) {
    const JobResult result = *service.result(ids[spec == &one ? 0 : 1]);
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.batch_size, 2u);
    const NoisyRunResult solo = run_noisy(spec->circuit, spec->noise, spec->config);
    EXPECT_EQ(result.run.histogram, solo.histogram);
    EXPECT_EQ(result.run.observable_means, solo.observable_means);
    EXPECT_EQ(result.solo_ops, solo.ops);
    // Every merged job reports its own run-scoped numbers.
    EXPECT_TRUE(result.run.telemetry.measured);
    EXPECT_EQ(result.run.telemetry.measured_ops, result.run.ops);
    EXPECT_GT(result.run.telemetry.wall_ms, 0.0);
    attributed += result.run.ops;
  }
  EXPECT_EQ(attributed, service.result(ids[0])->batch_ops);
}

TEST(ServiceBatch, RunNoisyBatchAttributionSumsExactly) {
  for (const bool frames : {false, true}) {
    const std::vector<JobSpec> specs = {make_ghz_spec(900, 5, frames),
                                        make_ghz_spec(700, 6, frames),
                                        make_ghz_spec(1100, 7, frames)};
    std::vector<const NoisyRunConfig*> configs;
    for (const JobSpec& spec : specs) {
      configs.push_back(&spec.config);
    }
    const NoisyBatchResult batch =
        run_noisy_batch(specs.front().circuit, specs.front().noise, configs);
    ASSERT_EQ(batch.per_job.size(), 3u);
    ASSERT_EQ(batch.solo_ops.size(), 3u);
    opcount_t attributed = 0;
    opcount_t solo_total = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      attributed += batch.per_job[i].ops;
      solo_total += batch.solo_ops[i];
      // A job's solo cost is exactly what it executes alone.
      const NoisyRunResult solo =
          run_noisy(specs[i].circuit, specs[i].noise, specs[i].config);
      EXPECT_EQ(batch.solo_ops[i], solo.ops) << "frames=" << frames << " job " << i;
      EXPECT_EQ(batch.per_job[i].histogram, solo.histogram)
          << "frames=" << frames << " job " << i;
      EXPECT_EQ(solo.telemetry.frame_collapsed_trials > 0, frames) << "job " << i;
    }
    EXPECT_EQ(attributed, batch.batch_ops) << "frames=" << frames;
    EXPECT_LT(batch.batch_ops, solo_total) << "frames=" << frames;
  }
}

TEST(ServiceBatch, FusedJobsNeverMerge) {
  // A fused trial's last bits depend on the tree it runs in, so a fused
  // job merged with another would not reproduce its standalone means.
  const DeviceModel yorktown = yorktown_device();
  JobSpec spec;
  for (const BenchmarkEntry& entry : make_table1_suite(yorktown)) {
    if (entry.name == "qft5") {
      spec.circuit = entry.compiled;
    }
  }
  ASSERT_GT(spec.circuit.num_gates(), 0u);
  spec.noise = yorktown.noise;
  spec.config.num_trials = 2048;
  spec.config.fuse_gates = true;
  spec.config.observables = {PauliString::from_label("ZZIII")};
  JobSpec spec_a = spec;
  spec_a.config.seed = 9;
  JobSpec spec_b = spec;
  spec_b.config.seed = 10;
  ASSERT_EQ(batch_fingerprint(spec_a), batch_fingerprint(spec_b));

  SimService service(manual_config());
  const std::uint64_t id_a = service.submit(spec_a);
  const std::uint64_t id_b = service.submit(spec_b);
  EXPECT_EQ(service.run_pending(), 2u);
  for (const auto& [id, job] : {std::pair{id_a, &spec_a}, std::pair{id_b, &spec_b}}) {
    const JobResult result = *service.result(id);
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.batch_size, 1u);
    const NoisyRunResult solo = run_noisy(job->circuit, job->noise, job->config);
    EXPECT_EQ(result.run.histogram, solo.histogram);
    ASSERT_EQ(result.run.observable_means.size(), 1u);
    EXPECT_EQ(result.run.observable_means[0], solo.observable_means[0]);
  }
  EXPECT_EQ(service.stats().merged_batches, 0u);
}

TEST(ServiceBatch, RunNoisyBatchRejectsMismatchedJobs) {
  const JobSpec a = make_spec(300, 1);
  JobSpec b = make_spec(300, 2);
  b.config.max_states = 2;  // one tree has one MSV budget
  EXPECT_THROW(run_noisy_batch(a.circuit, a.noise, {&a.config, &b.config}), Error);
  b = make_spec(300, 2);
  b.config.frame_collapse = true;
  EXPECT_THROW(run_noisy_batch(a.circuit, a.noise, {&a.config, &b.config}), Error);
  JobSpec fused = make_spec(300, 4);
  fused.config.fuse_gates = true;
  JobSpec fused2 = make_spec(300, 5);
  fused2.config.fuse_gates = true;
  EXPECT_THROW(run_noisy_batch(a.circuit, a.noise, {&fused.config, &fused2.config}),
               Error);
  JobSpec baseline = make_spec(300, 3);
  baseline.config.mode = ExecutionMode::kBaseline;
  JobSpec baseline2 = baseline;
  EXPECT_THROW(
      run_noisy_batch(a.circuit, a.noise, {&baseline.config, &baseline2.config}),
      Error);
  EXPECT_THROW(run_noisy_batch(a.circuit, a.noise, {}), Error);
}

// ---------------------------------------------------------------------------
// Queue lifecycle: submit -> poll -> cancel, backpressure, priority.
// ---------------------------------------------------------------------------

TEST(ServiceQueue, SubmitPollCancelLifecycle) {
  SimService service(manual_config());
  const std::uint64_t id = service.submit(make_spec(200));

  const std::optional<JobStatus> queued = service.poll(id);
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->state, JobState::kQueued);
  EXPECT_FALSE(service.result(id).has_value());  // not terminal yet

  EXPECT_TRUE(service.cancel(id));
  const std::optional<JobStatus> cancelled = service.poll(id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  const std::optional<JobResult> result = service.result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, JobState::kCancelled);

  // Cancelled jobs never execute; a second cancel is a no-op.
  EXPECT_FALSE(service.cancel(id));
  EXPECT_EQ(service.run_pending(), 0u);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServiceQueue, CancelFailsForUnknownAndFinishedJobs) {
  SimService service(manual_config());
  EXPECT_FALSE(service.cancel(12345));
  const std::uint64_t id = service.submit(make_spec(100));
  service.run_pending();
  EXPECT_FALSE(service.cancel(id));  // already done
  EXPECT_FALSE(service.poll(999).has_value());
}

TEST(ServiceQueue, BoundedQueueRejectsWithBackpressure) {
  SimService service(manual_config(/*queue_capacity=*/2));
  EXPECT_EQ(service.try_submit(make_spec(100, 1)).status, SubmitStatus::kAccepted);
  EXPECT_EQ(service.try_submit(make_spec(100, 2)).status, SubmitStatus::kAccepted);

  const SubmitOutcome full = service.try_submit(make_spec(100, 3));
  EXPECT_EQ(full.status, SubmitStatus::kQueueFull);
  EXPECT_EQ(full.job_id, 0u);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_THROW(service.submit(make_spec(100, 3)), Error);

  // Draining frees capacity: the next submit succeeds.
  service.run_pending();
  EXPECT_EQ(service.try_submit(make_spec(100, 3)).status, SubmitStatus::kAccepted);
}

TEST(ServiceQueue, CancelFreesQueueCapacity) {
  SimService service(manual_config(/*queue_capacity=*/1));
  const std::uint64_t id = service.submit(make_spec(100, 1));
  EXPECT_EQ(service.try_submit(make_spec(100, 2)).status, SubmitStatus::kQueueFull);
  EXPECT_TRUE(service.cancel(id));
  EXPECT_EQ(service.try_submit(make_spec(100, 2)).status, SubmitStatus::kAccepted);
}

TEST(ServiceQueue, HighPriorityJobsClaimedFirst) {
  SimService service(manual_config(/*queue_capacity=*/8, /*max_batch_jobs=*/1));
  JobSpec low = make_spec(100, 1);
  low.priority = JobPriority::kLow;
  JobSpec normal = make_spec(100, 2);
  JobSpec high = make_spec(100, 3);
  high.priority = JobPriority::kHigh;

  const std::uint64_t id_low = service.submit(low);
  const std::uint64_t id_normal = service.submit(normal);
  const std::uint64_t id_high = service.submit(high);

  // Drain one batch at a time; with batching disabled the claim order is
  // priority first, submission order within a priority.
  EXPECT_EQ(service.run_pending(1), 1u);
  EXPECT_EQ(service.poll(id_high)->state, JobState::kDone);
  EXPECT_EQ(service.poll(id_normal)->state, JobState::kQueued);

  EXPECT_EQ(service.run_pending(1), 1u);
  EXPECT_EQ(service.poll(id_normal)->state, JobState::kDone);
  EXPECT_EQ(service.poll(id_low)->state, JobState::kQueued);

  EXPECT_EQ(service.run_pending(1), 1u);
  EXPECT_EQ(service.poll(id_low)->state, JobState::kDone);
}

TEST(ServiceQueue, BatchingNeverCrossesPriorityBoundaries) {
  // A high-priority job must not drag a compatible low-priority job ahead
  // of a queued normal-priority job... but it may: batching trades strict
  // ordering for shared work only within the claimed batch. What we pin
  // down: the claimed batch starts at the highest-priority job.
  SimService service(manual_config(/*queue_capacity=*/8, /*max_batch_jobs=*/8));
  JobSpec high = make_spec(300, 1);
  high.priority = JobPriority::kHigh;
  const std::uint64_t id_normal = service.submit(make_spec(300, 2));
  const std::uint64_t id_high = service.submit(high);
  service.run_pending(1);
  // Both are compatible, so the high-priority claim batched the normal one
  // along with it — both finished in one batch.
  EXPECT_EQ(service.poll(id_high)->state, JobState::kDone);
  EXPECT_EQ(service.poll(id_normal)->state, JobState::kDone);
  EXPECT_EQ(service.result(id_high)->batch_size, 2u);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(ServiceValidation, RejectsBadSpecsWithoutEnqueueing) {
  SimService service(manual_config());

  JobSpec bad_msv = make_spec(100);
  bad_msv.config.max_states = 1;  // contract: 0 or >= 2
  EXPECT_EQ(service.try_submit(bad_msv).status, SubmitStatus::kInvalid);

  JobSpec small_noise = make_spec(100, 1, 4);
  small_noise.noise = NoiseModel::uniform(3, 0.01, 0.04, 0.0);
  EXPECT_EQ(service.try_submit(small_noise).status, SubmitStatus::kInvalid);

  JobSpec parallel_analyze = make_spec(100);
  parallel_analyze.config.num_threads = 2;
  parallel_analyze.analyze_only = true;
  EXPECT_EQ(service.try_submit(parallel_analyze).status, SubmitStatus::kInvalid);

  JobSpec framed_analyze = make_spec(100);
  framed_analyze.config.frame_collapse = true;
  framed_analyze.analyze_only = true;
  EXPECT_EQ(service.try_submit(framed_analyze).status, SubmitStatus::kInvalid);

  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.stats().rejected, 4u);
  EXPECT_EQ(service.run_pending(), 0u);
}

TEST(ServiceValidation, AnalyzeOnlyJobsRunWithoutStatevector) {
  SimService service(manual_config());
  JobSpec spec = make_spec(400, 9);
  spec.analyze_only = true;
  const std::uint64_t id = service.submit(spec);
  service.run_pending();
  const JobResult result = *service.result(id);
  ASSERT_EQ(result.state, JobState::kDone);
  EXPECT_TRUE(result.run.histogram.empty());
  const NoisyRunResult solo = analyze_noisy(spec.circuit, spec.noise, spec.config);
  EXPECT_EQ(result.run.ops, solo.ops);
}

// ---------------------------------------------------------------------------
// Worker threads: wait(), concurrent submits, shutdown.
// ---------------------------------------------------------------------------

TEST(ServiceWorkers, WaitBlocksUntilTerminal) {
  ServiceConfig config;
  config.num_workers = 2;
  SimService service(config);

  const JobSpec spec = make_spec(1200, 31);
  const NoisyRunResult solo = run_noisy(spec.circuit, spec.noise, spec.config);
  const std::uint64_t id = service.submit(spec);
  const JobResult result = service.wait(id);
  ASSERT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.run.histogram, solo.histogram);
  EXPECT_GE(result.exec_ms, 0.0);
  EXPECT_GE(result.queue_ms, 0.0);
  EXPECT_THROW(service.wait(4242), Error);  // unknown id
}

TEST(ServiceWorkers, ManyConcurrentSubmittersAllComplete) {
  ServiceConfig config;
  config.num_workers = 3;
  config.queue_capacity = 256;
  SimService service(config);

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::uint64_t>> ids(4);
  for (std::size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < 6; ++k) {
        const SubmitOutcome out = service.try_submit(make_spec(300, t * 100 + k));
        if (out.status == SubmitStatus::kAccepted) {
          ids[t].push_back(out.job_id);
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  std::size_t done = 0;
  for (const auto& per_thread : ids) {
    for (std::uint64_t id : per_thread) {
      const JobResult result = service.wait(id);
      EXPECT_EQ(result.state, JobState::kDone);
      ++done;
    }
  }
  EXPECT_EQ(done, accepted.load());
  EXPECT_EQ(service.stats().completed, accepted.load());
}

TEST(ServiceWorkers, ShutdownRejectsNewSubmits) {
  ServiceConfig config;
  config.num_workers = 1;
  SimService service(config);
  service.shutdown();
  EXPECT_EQ(service.try_submit(make_spec(100)).status, SubmitStatus::kShutdown);
  service.shutdown();  // idempotent
}

}  // namespace
}  // namespace rqsim
