// Job model of the simulation service.
//
// A job is one complete noisy-simulation request — a prepared circuit, a
// noise model, and a NoisyRunConfig (thread count included) — plus
// scheduling metadata (priority) and an accounting-only selector. Results
// extend NoisyRunResult with queue/execution timing and batch attribution:
// when the service coalesces several compatible jobs into one merged
// prefix tree (run_noisy_batch, sched/runner.hpp), each job records the
// combined batch cost next to what it would have cost alone.
#pragma once

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"
#include "sched/runner.hpp"

namespace rqsim {

enum class JobPriority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

enum class JobState : std::uint8_t {
  kQueued,     // accepted, waiting in the queue
  kRunning,    // claimed by a worker (possibly inside a batch)
  kDone,       // finished successfully; result available
  kFailed,     // execution threw; error message available
  kCancelled,  // removed from the queue before a worker claimed it
};

const char* job_state_name(JobState state);
const char* job_priority_name(JobPriority priority);

/// Everything needed to execute one simulation request.
struct JobSpec {
  Circuit circuit;   // must already be decomposed to 1-/2-qubit gates
  NoiseModel noise;  // must cover circuit.num_qubits()
  NoisyRunConfig config;

  /// Accounting-only execution via analyze_noisy (no statevector).
  bool analyze_only = false;

  JobPriority priority = JobPriority::kNormal;

  /// Submitting tenant (empty = anonymous). Deliberately excluded from
  /// batch_fingerprint/batch_compatible: jobs from *different* tenants with
  /// the same workload are exactly what the cross-job planner should merge
  /// — the service counts such cross-tenant merges separately
  /// (ServiceStats::merged_cross_tenant_*), and the fleet router reports
  /// their hit rate as the headline sharding metric.
  std::string tenant;

  /// Distributed-trace id (0 = untraced). Minted by the router at admission
  /// (or by the client) and carried over the JSONL protocol; spans recorded
  /// while this job executes are tagged with it. Excluded from
  /// batch_fingerprint/batch_compatible like tenant: tracing identity never
  /// affects batchability.
  std::uint64_t trace_id = 0;
};

/// Terminal outcome of a job (valid once the state is kDone / kFailed /
/// kCancelled).
struct JobResult {
  std::uint64_t job_id = 0;
  JobState state = JobState::kQueued;

  /// Simulation result; meaningful only when state == kDone. `run.ops` is
  /// this job's *attributed* share of the (possibly merged) schedule.
  NoisyRunResult run;

  /// Error text; meaningful only when state == kFailed.
  std::string error;

  /// Wall-clock milliseconds spent waiting in the queue / executing.
  double queue_ms = 0.0;
  double exec_ms = 0.0;

  /// Trace id the job ran under (copied from JobSpec; 0 = untraced).
  std::uint64_t trace_id = 0;

  /// Measured bits of the job's circuit: the width of its histogram keys
  /// as bitstrings.
  std::size_t num_measured = 0;

  /// Batch attribution. batch_size == 1 means the job ran standalone and
  /// batch_ops == solo_ops == run.ops. In a merged batch, batch_ops is the
  /// combined op count of the whole merged schedule, and solo_ops is what
  /// this job's reorder+cache schedule would have cost on its own; the
  /// difference between Σ solo_ops and batch_ops is the cross-job saving.
  std::size_t batch_size = 1;
  opcount_t batch_ops = 0;
  opcount_t solo_ops = 0;
};

/// Cheap snapshot of a job's lifecycle (poll result).
struct JobStatus {
  std::uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  JobPriority priority = JobPriority::kNormal;
};

/// Content fingerprint of the workload portion of a spec that must match
/// for two jobs to be batchable: circuit structure, noise rates, execution
/// mode, MSV budget, fusion and frame settings. Seed, trial count,
/// observables, thread count and priority are deliberately excluded — they
/// vary freely within a batch.
std::uint64_t batch_fingerprint(const JobSpec& spec);

/// Exact batchability check (fingerprint equality plus a field-by-field
/// comparison, so hash collisions can never merge distinct workloads):
/// statevector jobs on the same circuit and noise model whose configs pass
/// configs_mergeable (sched/runner.hpp). Thread counts need not match (the
/// merged tree runs on the largest one), and fused jobs never merge.
bool batch_compatible(const JobSpec& a, const JobSpec& b);

}  // namespace rqsim
