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
#include "telemetry/telemetry.hpp"
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
}

namespace {

// Read handle for the process-wide matvec-op total (written by the
// baseline loop and the tree executor); run_noisy snapshots it around the
// run so TelemetrySummary::measured_ops is this run's delta.
telemetry::Counter g_matvec_ops("sim.matvec_ops");

std::vector<Trial> make_trials(const Circuit& circuit, const CircuitContext& ctx,
                               const NoiseModel& noise, const NoisyRunConfig& config,
                               Rng& rng, const char* context) {
  RQSIM_CHECK(noise.num_qubits() >= circuit.num_qubits(),
              std::string(context) +
                  ": noise model covers fewer qubits than the circuit");
  validate_run_limits(config, context);
  return generate_trials(circuit, ctx.layering, noise, config.num_trials, rng);
}

/// Observable sums to means, plus the accounting every mode derives from
/// the trial set and result.ops.
void fill_common(NoisyRunResult& result, const CircuitContext& ctx,
                 const std::vector<Trial>& trials) {
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

}  // namespace

void fill_tree_result(NoisyRunResult& result, const CircuitContext& ctx,
                      const std::vector<Trial>& trials, const ExecTree& tree,
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
  result.telemetry.uncomputations = stats.uncomputations;
  fill_common(result, ctx, trials);
}

NoisyRunResult run_noisy(const Circuit& circuit, const NoiseModel& noise,
                         const NoisyRunConfig& config) {
  RQSIM_SPAN("runner.run_noisy");
  const telemetry::Stopwatch stopwatch;
  const telemetry::MeasuredRunScope run_scope;
  const bool measured = telemetry::compiled() && telemetry::enabled();
  const std::uint64_t ops_before = measured ? g_matvec_ops.value() : 0;
  circuit.validate();
  RQSIM_CHECK(config.mode != ExecutionMode::kCachedUnordered,
              "run_noisy: the unordered-cache ablation is accounting-only; "
              "use analyze_noisy");
  RQSIM_CHECK(config.num_threads <= 1 || config.mode == ExecutionMode::kCachedReordered,
              "run_noisy: num_threads > 1 requires the cached mode");
  for (const PauliString& pauli : config.observables) {
    RQSIM_CHECK(pauli.min_qubits() <= circuit.num_qubits(),
                "run_noisy: observable acts on qubits beyond the circuit");
  }
  CircuitContext ctx(circuit);
  Rng rng(config.seed);
  std::vector<Trial> trials = make_trials(circuit, ctx, noise, config, rng, "run_noisy");
  // Per-trial measurement seeds (assigned in generation order, before any
  // reorder): sampling becomes independent of finish order, which makes the
  // baseline loop and the prefix tree at any thread count produce
  // bitwise-identical histograms.
  assign_measurement_seeds(trials, rng);

  NoisyRunResult result;
  if (config.mode == ExecutionMode::kBaseline) {
    RQSIM_SPAN("runner.baseline_simulate");
    SvRunResult run = baseline_simulate(ctx, trials, &config.observables, config.fuse_gates);
    result.histogram = std::move(run.histogram);
    result.ops = run.ops;
    result.max_live_states = run.max_live_states;
    result.observable_means = std::move(run.observable_sums);
    result.telemetry.peak_live_states = result.max_live_states;
    fill_common(result, ctx, trials);
  } else {
    RQSIM_SPAN("runner.cached_schedule");
    reorder_trials(trials);
    ScheduleOptions options;
    options.max_states = config.max_states;
    // Frame collapse needs the per-gate Clifford structure (hidden by fused
    // segments) and Pauli error injections (guaranteed by the noise model's
    // channel set).
    options.frame_collapse =
        config.frame_collapse && !config.fuse_gates && noise.all_channels_pauli();
    options.frame_observables = !config.observables.empty();
    const ExecTree tree = build_exec_tree(ctx, trials, options);
    if (config.verify_plans) {
      verify_tree_plan_or_throw(ctx, trials, tree, options, "run_noisy");
    }
    TreeExecConfig exec_config;
    exec_config.num_threads = std::clamp<std::size_t>(
        config.num_threads, 1, std::max<std::size_t>(1, trials.size()));
    exec_config.max_states = config.max_states;
    exec_config.fuse_gates = config.fuse_gates;
    SampledTrialSink sink(ctx, trials, &config.observables);
    const TreeExecStats stats = execute_tree(ctx, tree, trials, exec_config, sink);
    result.histogram = sink.take_histogram();
    result.ops = stats.ops;
    result.observable_means = sink.take_observable_sums();
    fill_tree_result(result, ctx, trials, tree, stats);
  }
  // A concurrent run (service with multiple workers) would fold its ops
  // into our counter delta; report measured=false rather than an inflated
  // measured_ops that no longer equals result.ops.
  result.telemetry.measured = measured && run_scope.exclusive();
  if (result.telemetry.measured) {
    result.telemetry.measured_ops = g_matvec_ops.value() - ops_before;
  }
  result.telemetry.wall_ms = stopwatch.elapsed_ms();
  return result;
}

NoisyRunResult analyze_noisy(const Circuit& circuit, const NoiseModel& noise,
                             const NoisyRunConfig& config) {
  circuit.validate();
  CircuitContext ctx(circuit);
  Rng rng(config.seed);
  std::vector<Trial> trials =
      make_trials(circuit, ctx, noise, config, rng, "analyze_noisy");

  NoisyRunResult result;
  switch (config.mode) {
    case ExecutionMode::kBaseline:
      result.ops = baseline_op_count(ctx, trials);
      result.max_live_states = 1;
      break;
    case ExecutionMode::kCachedReordered: {
      reorder_trials(trials);
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
