#include "service/service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace rqsim {

namespace {

using telemetry::clock_now;
using telemetry::ms_between;

// Queue/latency metrics. The histograms are log-scale over microseconds —
// enough resolution to separate "served from cache in µs" from "waited out
// a deep queue in seconds" without per-bucket configuration.
telemetry::Counter g_submitted("service.jobs_submitted");
telemetry::Counter g_rejected("service.jobs_rejected");
telemetry::Counter g_completed("service.jobs_completed");
telemetry::Counter g_failed("service.jobs_failed");
telemetry::Histogram g_queue_depth("service.queue_depth");
telemetry::Histogram g_queue_us("service.job_queue_us");
telemetry::Histogram g_exec_us("service.job_exec_us");
telemetry::Histogram g_batch_jobs("service.batch_jobs");

std::uint64_t to_us(double ms) {
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace

SimService::SimService(ServiceConfig config) : config_(config) {
  RQSIM_CHECK(config_.queue_capacity > 0, "SimService: queue_capacity must be > 0");
  RQSIM_CHECK(config_.max_batch_jobs > 0, "SimService: max_batch_jobs must be > 0");
  // Pin the process-uptime origin no later than service birth, so the
  // `stats` verb's uptime reflects how long the service has been up.
  telemetry::process_start_time();
  workers_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SimService::~SimService() { shutdown(); }

std::string SimService::validate_spec(const JobSpec& spec) {
  try {
    spec.circuit.validate();
    RQSIM_CHECK(spec.noise.num_qubits() >= spec.circuit.num_qubits(),
                "noise model covers fewer qubits than the circuit");
    validate_run_limits(spec.config, "job");
    if (!spec.analyze_only) {
      RQSIM_CHECK(spec.circuit.num_qubits() <= 30,
                  "statevector jobs are limited to 30 qubits; use analyze_only");
    }
    RQSIM_CHECK(!spec.analyze_only || !spec.config.frame_collapse,
                "analyze_only counts the unframed schedule; frame collapse needs a "
                "statevector job");
    if (spec.config.num_threads > 1) {
      RQSIM_CHECK(!spec.analyze_only, "parallel execution is statevector-only");
      RQSIM_CHECK(spec.config.mode == ExecutionMode::kCachedReordered,
                  "parallel execution supports only the cached mode");
    }
    if (!spec.analyze_only) {
      RQSIM_CHECK(spec.config.mode != ExecutionMode::kCachedUnordered,
                  "the unordered-cache ablation is accounting-only");
    }
  } catch (const Error& e) {
    return e.what();
  }
  return std::string();
}

SubmitOutcome SimService::try_submit(JobSpec spec) {
  SubmitOutcome outcome;
  std::string invalid = validate_spec(spec);
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    outcome.status = SubmitStatus::kShutdown;
    outcome.error = "service is shutting down";
    return outcome;
  }
  if (!invalid.empty()) {
    ++stats_.rejected;
    g_rejected.increment();
    outcome.status = SubmitStatus::kInvalid;
    outcome.error = std::move(invalid);
    return outcome;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.rejected;
    g_rejected.increment();
    outcome.status = SubmitStatus::kQueueFull;
    outcome.error = "queue full (capacity " + std::to_string(config_.queue_capacity) +
                    "); retry later";
    return outcome;
  }
  const std::uint64_t id = next_id_++;
  Job& job = jobs_[id];
  job.id = id;
  job.fingerprint = batch_fingerprint(spec);
  job.spec = std::move(spec);
  job.submitted_at = clock_now();
  job.result.job_id = id;
  job.result.num_measured = job.spec.circuit.num_measured();
  queue_.push_back(id);
  ++stats_.submitted;
  g_submitted.increment();
  g_queue_depth.record(queue_.size());
  outcome.job_id = id;
  work_cv_.notify_one();
  return outcome;
}

std::uint64_t SimService::submit(JobSpec spec) {
  const SubmitOutcome outcome = try_submit(std::move(spec));
  RQSIM_CHECK(outcome.status == SubmitStatus::kAccepted,
              "SimService::submit: " + outcome.error);
  return outcome.job_id;
}

std::optional<JobStatus> SimService::poll(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  JobStatus status;
  status.job_id = job_id;
  status.state = it->second.state;
  status.priority = it->second.spec.priority;
  return status;
}

std::optional<JobResult> SimService::result(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state == JobState::kQueued ||
      it->second.state == JobState::kRunning) {
    return std::nullopt;
  }
  return it->second.result;
}

JobResult SimService::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  RQSIM_CHECK(it != jobs_.end(), "SimService::wait: unknown job id");
  done_cv_.wait(lock, [&] {
    const JobState s = it->second.state;
    return s != JobState::kQueued && s != JobState::kRunning;
  });
  return it->second.result;
}

bool SimService::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) {
    return false;
  }
  const auto queue_it = std::find(queue_.begin(), queue_.end(), job_id);
  if (queue_it == queue_.end()) {
    return false;  // claimed between state check and now (not reachable: lock held)
  }
  queue_.erase(queue_it);
  it->second.state = JobState::kCancelled;
  it->second.result.state = JobState::kCancelled;
  it->second.result.queue_ms = ms_between(it->second.submitted_at, clock_now());
  ++stats_.cancelled;
  done_cv_.notify_all();
  return true;
}

ServiceStats SimService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = stats_;
  snapshot.queued_now = queue_.size();
  std::size_t running = 0;
  for (const auto& [id, job] : jobs_) {
    (void)id;
    if (job.state == JobState::kRunning) {
      ++running;
    }
  }
  snapshot.running_now = running;
  return snapshot;
}

telemetry::SloTracker SimService::slo_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slo_;
}

std::vector<SimService::Job*> SimService::claim_batch_locked() {
  std::vector<Job*> group;
  if (queue_.empty()) {
    return group;
  }
  // Highest priority first, FIFO within a priority level.
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Job& a = jobs_.at(queue_[i]);
    const Job& b = jobs_.at(queue_[best]);
    if (static_cast<int>(a.spec.priority) > static_cast<int>(b.spec.priority)) {
      best = i;
    }
  }
  Job& lead = jobs_.at(queue_[best]);
  group.push_back(&lead);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

  // Gather batchable followers (any priority — riding along never delays
  // them) while respecting the batch size cap.
  if (config_.max_batch_jobs > 1) {
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < config_.max_batch_jobs;) {
      Job& candidate = jobs_.at(*it);
      if (candidate.fingerprint == lead.fingerprint &&
          batch_compatible(lead.spec, candidate.spec)) {
        group.push_back(&candidate);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const auto now = clock_now();
  for (Job* job : group) {
    job->state = JobState::kRunning;
    job->started_at = now;
  }
  return group;
}

void SimService::execute_batch_group(const std::vector<Job*>& group) {
  // The whole merged group runs as one unit of work, so its spans carry the
  // lead job's trace id (the job the planner formed the batch around).
  // Followers keep their own ids on their queue-wait events below.
  telemetry::TraceContext trace_ctx(group.front()->spec.trace_id);
  RQSIM_SPAN("service.execute_batch");
  g_batch_jobs.record(group.size());
  // Runs without the lock: specs are immutable once queued and the jobs are
  // in kRunning, which no other path mutates.
  NoisyBatchResult batch;
  std::string error;
  try {
    const JobSpec& lead = group.front()->spec;
    if (lead.analyze_only) {  // never merged: analyze_only is batch-incompatible
      batch.per_job.push_back(analyze_noisy(lead.circuit, lead.noise, lead.config));
      batch.batch_ops = batch.per_job.front().ops;
      batch.solo_ops.push_back(batch.batch_ops);
    } else {
      std::vector<const NoisyRunConfig*> configs;
      configs.reserve(group.size());
      for (const Job* job : group) {
        configs.push_back(&job->spec.config);
      }
      batch = run_noisy_batch(lead.circuit, lead.noise, configs);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  const auto finished = clock_now();
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t j = 0; j < group.size(); ++j) {
    Job& job = *group[j];
    job.result.queue_ms = ms_between(job.submitted_at, job.started_at);
    job.result.exec_ms = ms_between(job.started_at, finished);
    g_queue_us.record(to_us(job.result.queue_ms));
    g_exec_us.record(to_us(job.result.exec_ms));
    // Queue wait as a retroactive complete event: the endpoints were
    // captured as TimePoints before anyone knew the job would be traced.
    telemetry::trace_complete("service.queue_wait",
                              telemetry::to_ns(job.submitted_at),
                              telemetry::to_ns(job.started_at),
                              job.spec.trace_id);
    job.result.trace_id = job.spec.trace_id;
    slo_.record(job.spec.tenant, job.id, job.spec.trace_id,
                to_us(job.result.queue_ms), to_us(job.result.exec_ms));
    job.result.batch_size = group.size();
    if (error.empty()) {
      job.state = JobState::kDone;
      job.result.state = JobState::kDone;
      job.result.run = std::move(batch.per_job[j]);
      job.result.batch_ops = batch.batch_ops;
      job.result.solo_ops = batch.solo_ops[j];
      ++stats_.completed;
      g_completed.increment();
    } else {
      job.state = JobState::kFailed;
      job.result.state = JobState::kFailed;
      job.result.error = error;
      ++stats_.failed;
      g_failed.increment();
    }
  }
  if (error.empty() && group.size() > 1) {
    ++stats_.merged_batches;
    stats_.merged_jobs += group.size();
    stats_.merged_batch_ops += batch.batch_ops;
    for (const opcount_t s : batch.solo_ops) {
      stats_.merged_solo_ops += s;
    }
    bool cross_tenant = false;
    for (const Job* job : group) {
      if (job->spec.tenant != group.front()->spec.tenant) {
        cross_tenant = true;
        break;
      }
    }
    if (cross_tenant) {
      ++stats_.merged_cross_tenant_batches;
      stats_.merged_cross_tenant_jobs += group.size();
    }
  }
  done_cv_.notify_all();
}

void SimService::worker_loop() {
  telemetry::set_thread_lane("service.worker");
  while (true) {
    std::vector<Job*> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      group = claim_batch_locked();
    }
    if (!group.empty()) {
      execute_batch_group(group);
    }
  }
}

std::size_t SimService::run_pending(std::size_t max_batches) {
  std::size_t executed = 0;
  for (std::size_t b = 0; b < max_batches; ++b) {
    std::vector<Job*> group;
    {
      std::lock_guard<std::mutex> lock(mu_);
      group = claim_batch_locked();
    }
    if (group.empty()) {
      break;
    }
    execute_batch_group(group);
    executed += group.size();
  }
  return executed;
}

void SimService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // Serialize the join phase: shutdown() can race with itself (e.g. a
  // server's stop() on one thread and the destructor on another), and
  // joining the same std::thread twice is undefined behavior that deadlocks
  // in practice. The second caller finds an empty vector and returns.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      // rqsim-analyze: allow(RQS102) join_mu_ exists precisely to serialize this join phase; no other lock is held here
      worker.join();
    }
  }
  workers_.clear();
}

}  // namespace rqsim
