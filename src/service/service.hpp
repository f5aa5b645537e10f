// In-process simulation service: a bounded priority job queue drained by a
// worker pool, with cross-job batch planning.
//
// Lifecycle: submit() validates a JobSpec and enqueues it (rejecting with
// kQueueFull when the bounded queue is at capacity — the service's
// backpressure signal; clients retry or shed load). Workers claim the
// highest-priority queued job, then scan the remaining queue for jobs that
// are batch-compatible with it (service/job.hpp) and execute the whole
// group as one merged prefix tree (run_noisy_batch, sched/runner.hpp); a
// group of one is the same call. poll() is a cheap
// state snapshot, wait() blocks until the job is terminal, cancel()
// removes a job that is still queued (a job already claimed by a worker
// runs to completion — simulation is not interruptible mid-schedule).
//
// With num_workers == 0 the service never starts threads; run_pending()
// drains the queue on the caller's thread. Tests and single-threaded
// embeddings use this for deterministic scheduling.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/job.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/slo.hpp"

namespace rqsim {

struct ServiceConfig {
  /// Worker threads; 0 = no threads, drain manually with run_pending().
  std::size_t num_workers = 2;

  /// Maximum number of *queued* (not yet claimed) jobs; submissions beyond
  /// this are rejected with kQueueFull.
  std::size_t queue_capacity = 256;

  /// Upper bound on jobs merged into one batch; 1 disables cross-job
  /// batching.
  std::size_t max_batch_jobs = 8;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted,   // job queued; job_id valid
  kQueueFull,  // backpressure: bounded queue at capacity
  kInvalid,    // spec failed validation; error has details
  kShutdown,   // service no longer accepts work
};

struct SubmitOutcome {
  SubmitStatus status = SubmitStatus::kAccepted;
  std::uint64_t job_id = 0;
  std::string error;
};

/// Monotonic service counters (all cumulative unless suffixed _now).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // kQueueFull + kInvalid
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;

  /// Merged batches of size >= 2, jobs inside them, and their combined vs
  /// standalone op counts — (merged_solo_ops - merged_batch_ops) is the
  /// computation the batch planner eliminated beyond the paper's
  /// within-run reuse.
  std::uint64_t merged_batches = 0;
  std::uint64_t merged_jobs = 0;
  opcount_t merged_batch_ops = 0;
  opcount_t merged_solo_ops = 0;

  /// Subset of the merged batches whose jobs came from more than one
  /// distinct tenant (JobSpec::tenant) — the cross-tenant reuse the fleet
  /// router's workload-affinity sharding arranges. merged_cross_tenant_jobs
  /// / completed is the fleet's cross-tenant batch-merge hit rate.
  std::uint64_t merged_cross_tenant_batches = 0;
  std::uint64_t merged_cross_tenant_jobs = 0;

  std::size_t queued_now = 0;
  std::size_t running_now = 0;
};

class SimService {
 public:
  explicit SimService(ServiceConfig config = {});
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Validate and enqueue; never throws on rejection (status tells why).
  SubmitOutcome try_submit(JobSpec spec);

  /// Convenience wrapper: returns the job id or throws rqsim::Error.
  std::uint64_t submit(JobSpec spec);

  /// Snapshot of a job's lifecycle state; nullopt for unknown ids.
  std::optional<JobStatus> poll(std::uint64_t job_id) const;

  /// Terminal result if the job is done/failed/cancelled, else nullopt.
  std::optional<JobResult> result(std::uint64_t job_id) const;

  /// Block until the job reaches a terminal state; throws on unknown id.
  JobResult wait(std::uint64_t job_id);

  /// Remove a still-queued job. Returns false if the job is unknown,
  /// already running, or already terminal.
  bool cancel(std::uint64_t job_id);

  ServiceStats stats() const;

  /// Copy of the per-tenant latency SLO state (histograms + slow-job
  /// exemplars with trace ids), recorded at job completion.
  telemetry::SloTracker slo_snapshot() const;

  /// Drain up to `max_batches` batches on the caller's thread (intended
  /// for num_workers == 0). Returns the number of jobs executed.
  std::size_t run_pending(std::size_t max_batches = static_cast<std::size_t>(-1));

  /// Stop accepting work and join the workers (idempotent; also run by the
  /// destructor). Queued jobs that were never claimed stay kQueued.
  void shutdown();

  const ServiceConfig& config() const { return config_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::uint64_t fingerprint = 0;
    telemetry::TimePoint submitted_at;
    telemetry::TimePoint started_at;
    JobResult result;
  };

  void worker_loop();
  /// Pop the best queued job plus its batch-compatible followers
  /// (lock held). Empty result = nothing queued.
  std::vector<Job*> claim_batch_locked();
  void execute_batch_group(const std::vector<Job*>& group);
  static std::string validate_spec(const JobSpec& spec);

  ServiceConfig config_;
  mutable std::mutex mu_;
  std::mutex join_mu_;  // serializes the worker-join phase of shutdown()
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable done_cv_;   // waiters: some job reached terminal
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> queue_;   // submission order; scanned by priority
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  ServiceStats stats_;
  telemetry::SloTracker slo_;
  std::vector<std::thread> workers_;
};

}  // namespace rqsim
