#include "sched/runner.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include <algorithm>

#include "sched/backend.hpp"
#include "sched/baseline.hpp"
#include "sched/cached.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

void validate_run_limits(const NoisyRunConfig& config, const char* context) {
  const std::string where(context);
  RQSIM_CHECK(config.max_states != 1,
              where + ": max_states must be 0 (unlimited) or >= 2 — one shared "
                      "checkpoint plus at least one scratch state");
  RQSIM_CHECK(config.max_states <= kMaxStatesBudget,
              where + ": max_states " + std::to_string(config.max_states) +
                  " exceeds the supported maximum (overflowed or negative value?)");
  RQSIM_CHECK(config.num_trials <= kMaxTrialCount,
              where + ": trial count " + std::to_string(config.num_trials) +
                  " exceeds the supported maximum (overflowed or negative value?)");
  RQSIM_CHECK(config.num_threads <= kMaxThreadCount,
              where + ": num_threads " + std::to_string(config.num_threads) +
                  " exceeds the supported maximum of " +
                  std::to_string(kMaxThreadCount));
}

bool configs_mergeable(const NoisyRunConfig& a, const NoisyRunConfig& b) {
  return a.mode == ExecutionMode::kCachedReordered && b.mode == a.mode &&
         a.max_states == b.max_states && !a.fuse_gates && !b.fuse_gates &&
         a.frame_collapse == b.frame_collapse;
}

namespace {

TrialSet make_trials(const Circuit& circuit, const CircuitContext& ctx,
                    const NoiseModel& noise, const NoisyRunConfig& config, Rng& rng,
                    const char* context) {
  RQSIM_CHECK(noise.num_qubits() >= circuit.num_qubits(),
              std::string(context) +
                  ": noise model covers fewer qubits than the circuit");
  return generate_trial_set(circuit, ctx.layering, noise, config.num_trials, rng);
}

/// A job's trial set with per-trial measurement seeds (assigned in
/// generation order, before any reorder): sampling becomes independent of
/// finish order, which makes the baseline loop and the prefix tree at any
/// thread count and in any merge produce bitwise-identical histograms.
TrialSet seeded_trials(const Circuit& circuit, const CircuitContext& ctx,
                       const NoiseModel& noise, const NoisyRunConfig& config) {
  RQSIM_SPAN("trials.generate");
  Rng rng(config.seed);
  TrialSet trials = make_trials(circuit, ctx, noise, config, rng, "run_noisy");
  assign_measurement_seeds(trials, rng);
  return trials;
}

/// Observable sums to means, plus the accounting every mode derives from
/// the trial set and result.ops.
void fill_common(NoisyRunResult& result, const CircuitContext& ctx,
                 const TrialSet& trials) {
  for (double& mean : result.observable_means) {
    mean /= static_cast<double>(std::max<std::size_t>(1, trials.size()));
  }
  result.baseline_ops = baseline_op_count(ctx, trials);
  result.trial_stats = compute_trial_stats(trials);
  result.normalized_computation =
      result.baseline_ops == 0
          ? 1.0
          : static_cast<double>(result.ops) / static_cast<double>(result.baseline_ops);
  result.telemetry.ops_saved_vs_baseline =
      result.baseline_ops > result.ops ? result.baseline_ops - result.ops : 0;
  result.telemetry.prefix_cache_hit_ratio =
      result.baseline_ops == 0
          ? 0.0
          : static_cast<double>(result.telemetry.ops_saved_vs_baseline) /
                static_cast<double>(result.baseline_ops);
}

/// Complete a job's result once the tree has executed: the executor
/// counters from `tree`/`stats`, then the accounting of fill_common against
/// result.ops, which the caller sets first.
void fill_tree_result(NoisyRunResult& result, const CircuitContext& ctx,
                      const TrialSet& trials, const ExecTree& tree,
                      const TreeExecStats& stats) {
  // Report the schedule's MSV — the deterministic bound admission control
  // enforces — rather than the timing-dependent transient peak.
  result.max_live_states = tree.peak_demand;
  result.fork_copies = stats.fork_copies;
  result.telemetry.steals = stats.steals;
  result.telemetry.inline_fallbacks = stats.inline_fallbacks;
  result.telemetry.cow_materializations = stats.cow_materializations;
  result.telemetry.pool_reuses = stats.pool_reuses;
  result.telemetry.pool_allocs = stats.pool_allocs;
  result.telemetry.pool_prewarmed = stats.prewarmed;
  result.telemetry.peak_live_states = stats.max_live_states;
  result.telemetry.frame_collapsed_trials = stats.frame_collapsed_trials;
  result.telemetry.frame_ops = stats.frame_ops;
  fill_common(result, ctx, trials);
}

/// The tree options a cached run of `config` builds with. Frame collapse
/// needs the per-gate Clifford structure (hidden by fused segments) and
/// Pauli error injections (guaranteed by the noise model's channel set).
ScheduleOptions tree_options(const NoisyRunConfig& config, const NoiseModel& noise,
                             bool observed) {
  ScheduleOptions options;
  options.max_states = config.max_states;
  options.frame_collapse =
      config.frame_collapse && !config.fuse_gates && noise.all_channels_pauli();
  options.frame_observables = observed;
  return options;
}

/// A cached run's schedule, built (and proved) before any amplitude moves.
struct TreePlan {
  /// Each job's trials, seeded and in reorder order exactly as a
  /// standalone run.
  std::vector<TrialSet> job_trials;

  /// Several jobs only: the stable merge of job_trials (by job, then by
  /// position) with each merged trial's job, and each job's solo cost (the
  /// planned_ops of the tree its own pass emitted, exact under frame
  /// collapse too).
  MergedTrials batch;
  std::vector<opcount_t> solo_ops;

  /// The options `tree` was built with.
  ScheduleOptions options;
  ExecTree tree;

  /// The trial set `tree` was built over.
  const TrialSet& trials() const {
    return job_trials.size() == 1 ? job_trials.front() : batch.trials;
  }
};

/// Everything before amplitudes move: each job's trial generation and
/// ordering pass (which emits the job's tree), the cross-job merge, the
/// merged tree and its proof.
TreePlan plan_tree(const Circuit& circuit, const CircuitContext& ctx,
                   const NoiseModel& noise,
                   const std::vector<const NoisyRunConfig*>& configs) {
  RQSIM_SPAN("runner.plan");
  const std::size_t n = configs.size();
  TreePlan plan;
  bool observed = false;
  bool verify = false;
  for (std::size_t j = 0; j < n; ++j) {
    const NoisyRunConfig& config = *configs[j];
    const bool job_observed = !config.observables.empty();
    TrialSet generated = seeded_trials(circuit, ctx, noise, config);
    RQSIM_SPAN("trials.reorder");
    OrderedTrials ordered = order_trials(ctx, std::move(generated),
                                         tree_options(config, noise, job_observed));
    plan.job_trials.push_back(std::move(ordered.trials));
    if (n == 1) {
      plan.tree = std::move(ordered.tree);
    } else {
      plan.solo_ops.push_back(ordered.tree.planned_ops);
    }
    observed = observed || job_observed;
    verify = verify || config.verify_plans;
  }
  plan.options = tree_options(*configs.front(), noise, observed);
  if (n > 1) {
    RQSIM_SPAN("trials.reorder");
    std::vector<const TrialSet*> jobs;
    for (const TrialSet& trials : plan.job_trials) {
      jobs.push_back(&trials);
    }
    plan.batch = merge_reordered(jobs);
    plan.tree = build_exec_tree(ctx, plan.batch.trials, plan.options);
  }
  if (verify) {
    RQSIM_SPAN("plan.verify");
    verify_tree_plan_or_throw(ctx, plan.trials(), plan.tree, plan.options, "run_noisy");
  }
  return plan;
}

/// Split `batch_ops` over jobs in proportion to their solo costs, with a
/// telescoping split so the shares sum exactly to batch_ops.
std::vector<opcount_t> attribute_ops(opcount_t batch_ops,
                                     const std::vector<opcount_t>& solo_ops) {
  const std::size_t n = solo_ops.size();
  opcount_t solo_total = 0;
  for (const opcount_t solo : solo_ops) {
    solo_total += solo;
  }
  std::vector<opcount_t> shares(n);
  opcount_t cum_solo = 0;
  opcount_t cum_attributed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    cum_solo += solo_ops[j];
    const opcount_t cum_share =
        solo_total == 0
            ? static_cast<opcount_t>(
                  (static_cast<unsigned __int128>(batch_ops) * (j + 1)) / n)
            : static_cast<opcount_t>(
                  (static_cast<unsigned __int128>(batch_ops) * cum_solo) / solo_total);
    shares[j] = cum_share - cum_attributed;
    cum_attributed = cum_share;
  }
  return shares;
}

void validate_configs(const Circuit& circuit,
                      const std::vector<const NoisyRunConfig*>& configs) {
  RQSIM_CHECK(!configs.empty() && configs.front() != nullptr,
              "run_noisy: no job configs");
  const NoisyRunConfig& lead = *configs.front();
  RQSIM_CHECK(lead.mode != ExecutionMode::kCachedUnordered,
              "run_noisy: the unordered-cache ablation is accounting-only; "
              "use analyze_noisy");
  for (const NoisyRunConfig* config : configs) {
    RQSIM_CHECK(config != nullptr, "run_noisy: null job config");
    validate_run_limits(*config, "run_noisy");
    RQSIM_CHECK(configs.size() == 1 || configs_mergeable(lead, *config),
                "run_noisy: merged jobs must be cached runs that match in "
                "max_states and frame_collapse, and none may be fused");
    RQSIM_CHECK(config->num_threads <= 1 || config->mode == ExecutionMode::kCachedReordered,
                "run_noisy: num_threads > 1 requires the cached mode");
    for (const PauliString& pauli : config->observables) {
      RQSIM_CHECK(pauli.min_qubits() <= circuit.num_qubits(),
                  "run_noisy: observable acts on qubits beyond the circuit");
    }
  }
}

}  // namespace

NoisyBatchResult run_noisy_batch(const Circuit& circuit, const NoiseModel& noise,
                                 const std::vector<const NoisyRunConfig*>& configs) {
  RQSIM_SPAN("runner.run_noisy");
  const telemetry::Stopwatch stopwatch;
  circuit.validate();
  validate_configs(circuit, configs);
  const NoisyRunConfig& lead = *configs.front();
  const std::size_t n = configs.size();
  const CircuitContext ctx(circuit);

  NoisyBatchResult out;
  out.per_job.resize(n);
  if (lead.mode == ExecutionMode::kBaseline) {
    RQSIM_SPAN("runner.baseline_simulate");
    const TrialSet trials = seeded_trials(circuit, ctx, noise, lead);
    SvRunResult run = baseline_simulate(ctx, trials, &lead.observables, lead.fuse_gates);
    NoisyRunResult& result = out.per_job.front();
    result.histogram = std::move(run.histogram);
    result.ops = run.ops;
    result.max_live_states = run.max_live_states;
    result.observable_means = std::move(run.observable_sums);
    result.telemetry.peak_live_states = result.max_live_states;
    fill_common(result, ctx, trials);
    out.batch_ops = result.ops;
    out.solo_ops = {result.ops};
  } else {
    const TreePlan plan = plan_tree(circuit, ctx, noise, configs);
    TreeExecConfig exec_config;
    std::vector<const std::vector<PauliString>*> observables;
    for (const NoisyRunConfig* config : configs) {
      exec_config.num_threads = std::max(exec_config.num_threads, config->num_threads);
      observables.push_back(&config->observables);
    }
    const TrialSet& trials = plan.trials();
    exec_config.num_threads = std::min<std::size_t>(
        exec_config.num_threads, std::max<std::size_t>(1, trials.size()));
    exec_config.fuse_gates = lead.fuse_gates;
    SampledTrialSink sink(ctx, trials, n == 1 ? nullptr : &plan.batch.trial_jobs,
                          observables);
    const TreeExecStats stats = execute_tree(ctx, plan.tree, trials, exec_config, sink);
    out.batch_ops = stats.ops;
    out.solo_ops = n == 1 ? std::vector<opcount_t>{stats.ops} : plan.solo_ops;
    const std::vector<opcount_t> shares = attribute_ops(stats.ops, out.solo_ops);
    for (std::size_t j = 0; j < n; ++j) {
      NoisyRunResult& result = out.per_job[j];
      result.ops = shares[j];
      result.histogram = sink.take_histogram(j);
      result.observable_means = sink.take_observable_sums(j);
      fill_tree_result(result, ctx, plan.job_trials[j], plan.tree, stats);
    }
  }
  const double wall_ms = stopwatch.elapsed_ms();
  for (NoisyRunResult& result : out.per_job) {
    result.telemetry.measured = true;
    result.telemetry.measured_ops = result.ops;
    result.telemetry.wall_ms = wall_ms;
  }
  return out;
}

NoisyRunResult run_noisy(const Circuit& circuit, const NoiseModel& noise,
                         const NoisyRunConfig& config) {
  return std::move(run_noisy_batch(circuit, noise, {&config}).per_job.front());
}

PlanProof prove_noisy(const Circuit& circuit, const NoiseModel& noise,
                      const NoisyRunConfig& config) {
  circuit.validate();
  RQSIM_CHECK(config.mode == ExecutionMode::kCachedReordered,
              "prove_noisy: only cached runs execute a prefix tree");
  NoisyRunConfig unproved = config;
  unproved.verify_plans = false;
  validate_configs(circuit, {&unproved});
  const CircuitContext ctx(circuit);
  const TreePlan plan = plan_tree(circuit, ctx, noise, {&unproved});
  return PlanVerifier(ctx, plan.options).verify_tree_plan(plan.trials(), plan.tree);
}

NoisyRunResult analyze_noisy(const Circuit& circuit, const NoiseModel& noise,
                             const NoisyRunConfig& config) {
  RQSIM_CHECK(!config.frame_collapse,
              "analyze_noisy: frame collapse is not counted here (the sequential "
              "walker ignores it); prove the framed count with 'rqsim verify --frames'");
  circuit.validate();
  validate_run_limits(config, "analyze_noisy");
  CircuitContext ctx(circuit);
  Rng rng(config.seed);
  TrialSet trials = make_trials(circuit, ctx, noise, config, rng, "analyze_noisy");

  NoisyRunResult result;
  switch (config.mode) {
    case ExecutionMode::kBaseline:
      result.ops = baseline_op_count(ctx, trials);
      result.max_live_states = 1;
      break;
    case ExecutionMode::kCachedReordered: {
      trials = reorder_trials(std::move(trials));
      CountBackend backend(ctx);
      ScheduleOptions options;
      options.max_states = config.max_states;
      if (config.verify_plans) {
        verify_schedule_or_throw(ctx, trials, options, "analyze_noisy");
      }
      schedule_trials(ctx, trials, backend, options);
      result.ops = backend.ops();
      result.max_live_states = backend.max_live_states();
      break;
    }
    case ExecutionMode::kCachedUnordered: {
      const ConsecutiveCacheResult run = consecutive_cached_count(ctx, trials);
      result.ops = run.ops;
      result.max_live_states = run.max_live_states;
      break;
    }
  }
  fill_common(result, ctx, trials);
  return result;
}

}  // namespace rqsim
