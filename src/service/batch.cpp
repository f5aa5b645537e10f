#include "service/batch.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/backend.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

namespace {

/// Where a merged-list trial came from: job index + position in that job's
/// own reordered trial list.
struct TrialOrigin {
  std::size_t job = 0;
  std::size_t local_index = 0;
};

/// Tree-executor sink demultiplexing the merged schedule back to jobs:
/// outcomes sample from each trial's private meas_seed and land in
/// per-trial slots; observable expectations are evaluated per finishing
/// buffer for each job represented in the group (jobs' trials are
/// consecutive within a group because the merge tie-breaks by job). The
/// final per-job reduction happens on the caller's thread, in merged
/// order — which, restricted to one job, is that job's standalone order.
class BatchSink : public TreeTrialSink {
 public:
  BatchSink(const CircuitContext& ctx, const std::vector<Trial>& trials,
            const std::vector<TrialOrigin>& origins,
            const std::vector<const std::vector<PauliString>*>& observables)
      : ctx_(ctx), trials_(trials), origins_(origins), observables_(observables) {
    sampled_ = !ctx.circuit.measured_qubits().empty();
    if (sampled_) {
      outcomes_.assign(trials.size(), 0);
    }
    expectations_.resize(trials.size());
  }

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    (void)node;
    std::size_t cached_job = kNoIndex;
    std::vector<double> cached_values;
    for (std::size_t t = first_trial; t < first_trial + count; ++t) {
      if (sampled_) {
        Rng trial_rng(trials_[t].meas_seed);
        outcomes_[t] = sample_outcome(*probs, trial_rng) ^ trials_[t].meas_flip_mask;
      }
      const std::size_t job = origins_[t].job;
      const std::vector<PauliString>& obs = *observables_[job];
      if (obs.empty()) {
        continue;
      }
      if (job != cached_job) {
        cached_values.clear();
        cached_values.reserve(obs.size());
        for (const PauliString& pauli : obs) {
          cached_values.push_back(expectation(state, pauli));
        }
        cached_job = job;
      }
      expectations_[t] = cached_values;
    }
  }

  /// Reduce trial slots into job `j`'s histogram and observable sums,
  /// visiting the merged list in order (== the job's standalone order).
  void reduce_job(std::size_t j, OutcomeHistogram& histogram,
                  std::vector<double>& observable_sums) const {
    for (std::size_t t = 0; t < trials_.size(); ++t) {
      if (origins_[t].job != j) {
        continue;
      }
      if (sampled_) {
        ++histogram[outcomes_[t]];
      }
      for (std::size_t k = 0; k < expectations_[t].size(); ++k) {
        observable_sums[k] += expectations_[t][k];
      }
    }
  }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  const CircuitContext& ctx_;
  const std::vector<Trial>& trials_;
  const std::vector<TrialOrigin>& origins_;
  const std::vector<const std::vector<PauliString>*>& observables_;
  bool sampled_ = false;
  std::vector<std::uint64_t> outcomes_;
  std::vector<std::vector<double>> expectations_;
};

}  // namespace

BatchExecution execute_batch(const std::vector<const JobSpec*>& jobs) {
  // Batches write the global "sim.matvec_ops" counter; holding the scope
  // lets concurrently measured runs (run_noisy on other service workers)
  // detect the overlap and drop their counter delta instead of absorbing
  // this batch's ops.
  const telemetry::MeasuredRunScope run_scope;
  RQSIM_CHECK(!jobs.empty(), "execute_batch: empty batch");
  for (const JobSpec* spec : jobs) {
    RQSIM_CHECK(spec != nullptr, "execute_batch: null job spec");
    RQSIM_CHECK(spec->config.mode == ExecutionMode::kCachedReordered,
                "execute_batch: only kCachedReordered jobs are batchable");
    RQSIM_CHECK(batch_compatible(*jobs.front(), *spec),
                "execute_batch: jobs are not batch-compatible");
  }
  const JobSpec& lead = *jobs.front();
  lead.circuit.validate();
  RQSIM_CHECK(lead.noise.num_qubits() >= lead.circuit.num_qubits(),
              "execute_batch: noise model covers fewer qubits than the circuit");
  const CircuitContext ctx(lead.circuit);
  ScheduleOptions options;
  options.max_states = lead.config.max_states;

  // Planning span: trial generation, per-job reorder, cross-job merge, tree
  // build and proof — everything before amplitudes move. An optional<> so
  // the span can close exactly where execution starts without a scope block
  // around variables the execution phase still needs.
  std::optional<telemetry::TraceSpan> plan_span;
  plan_span.emplace("service.batch_plan");

  // Per job, replicate run_noisy's setup exactly: seed the Rng, generate
  // the trial set, assign the per-trial measurement seeds, reorder. The
  // seeds travel with the trials through the merge, so sampling is
  // independent of where the merged schedule finishes them.
  const std::size_t n = jobs.size();
  std::vector<std::vector<Trial>> job_trials(n);
  std::vector<const std::vector<PauliString>*> job_observables(n);
  BatchExecution out;
  out.per_job.resize(n);
  out.solo_ops.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const JobSpec& spec = *jobs[j];
    for (const PauliString& pauli : spec.config.observables) {
      RQSIM_CHECK(pauli.min_qubits() <= lead.circuit.num_qubits(),
                  "execute_batch: observable acts on qubits beyond the circuit");
    }
    Rng rng(spec.config.seed);
    job_trials[j] = generate_trials(spec.circuit, ctx.layering, spec.noise,
                                    spec.config.num_trials, rng);
    assign_measurement_seeds(job_trials[j], rng);
    reorder_trials(job_trials[j]);
    job_observables[j] = &spec.config.observables;

    CountBackend solo(ctx);
    schedule_trials(ctx, job_trials[j], solo, options);
    out.solo_ops[j] = solo.ops();
  }

  // Merge the reordered lists into one reordered list. Ties across jobs are
  // broken by (job, local index), which keeps each job's trials in exactly
  // its standalone order — the bitwise-equivalence invariant.
  std::vector<TrialOrigin> origins;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < job_trials[j].size(); ++i) {
      origins.push_back({j, i});
    }
  }
  std::sort(origins.begin(), origins.end(),
            [&](const TrialOrigin& a, const TrialOrigin& b) {
              const Trial& ta = job_trials[a.job][a.local_index];
              const Trial& tb = job_trials[b.job][b.local_index];
              if (trial_order_less(ta, tb)) {
                return true;
              }
              if (trial_order_less(tb, ta)) {
                return false;
              }
              if (a.job != b.job) {
                return a.job < b.job;
              }
              return a.local_index < b.local_index;
            });
  std::vector<Trial> merged;
  merged.reserve(origins.size());
  for (const TrialOrigin& origin : origins) {
    merged.push_back(job_trials[origin.job][origin.local_index]);
  }

  // Build the merged prefix tree and prove it before touching amplitudes:
  // the tree-plan proof subsumes the sequential invariants (reorder order,
  // stack discipline, shared MSV budget, exact op telescoping) and pins
  // the tree to the sequential walker's stream op for op. One verifying
  // job is enough to cover the whole batch (the schedule is shared).
  const ExecTree tree = build_exec_tree(ctx, merged, options);
  const bool verify_merged =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const JobSpec* spec) { return spec->config.verify_plans; });
  if (verify_merged) {
    verify_tree_plan_or_throw(ctx, merged, tree, options, "execute_batch");
  }

  plan_span.reset();
  TreeExecConfig exec_config;
  exec_config.max_states = options.max_states;
  exec_config.fuse_gates = lead.config.fuse_gates;
  BatchSink sink(ctx, merged, origins, job_observables);
  const TreeExecStats stats = execute_tree(ctx, tree, merged, exec_config, sink);
  out.batch_ops = stats.ops;

  // Attribute the merged cost proportionally to each job's solo cost, with
  // a telescoping split so the attributed shares sum exactly to batch_ops.
  opcount_t solo_total = 0;
  for (const opcount_t s : out.solo_ops) {
    solo_total += s;
  }
  opcount_t cum_solo = 0;
  opcount_t cum_attributed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    NoisyRunResult& result = out.per_job[j];
    cum_solo += out.solo_ops[j];
    const opcount_t cum_share =
        solo_total == 0
            ? static_cast<opcount_t>(
                  (static_cast<unsigned __int128>(out.batch_ops) * (j + 1)) / n)
            : static_cast<opcount_t>(
                  (static_cast<unsigned __int128>(out.batch_ops) * cum_solo) /
                  solo_total);
    result.ops = cum_share - cum_attributed;
    cum_attributed = cum_share;

    result.observable_means.assign(jobs[j]->config.observables.size(), 0.0);
    sink.reduce_job(j, result.histogram, result.observable_means);
    fill_tree_result(result, ctx, job_trials[j], tree, stats);
  }
  return out;
}

}  // namespace rqsim
