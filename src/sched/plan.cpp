#include "sched/plan.hpp"

#include "common/error.hpp"
#include "sched/order.hpp"

namespace rqsim {

CircuitContext::CircuitContext(const Circuit& circuit_in)
    : circuit(circuit_in), layering(layer_circuit(circuit_in)) {
  ops_before_layer.resize(layering.num_layers() + 1, 0);
  for (std::size_t l = 0; l < layering.num_layers(); ++l) {
    ops_before_layer[l + 1] =
        ops_before_layer[l] + static_cast<opcount_t>(layering.layers[l].size());
  }
}

opcount_t CircuitContext::ops_in_layers(layer_index_t from, layer_index_t to) const {
  RQSIM_CHECK(from <= to && to <= num_layers(), "ops_in_layers: bad range");
  return ops_before_layer[to] - ops_before_layer[from];
}

namespace {

class ScheduleWalker {
 public:
  ScheduleWalker(const CircuitContext& ctx, const TrialSet& trials,
                 ScheduleVisitor& visitor, const ScheduleOptions& options)
      : ctx_(ctx), trials_(trials), visitor_(visitor), options_(options) {}

  void run() {
    if (trials_.empty()) {
      return;
    }
    walk(0, trials_.size(), /*event_depth=*/0, /*depth=*/0, /*frontier=*/0);
  }

 private:
  // Process trials [begin, end), all sharing their first `event_depth`
  // events, with checkpoint `depth` holding that prefix advanced through
  // `frontier` layers.
  void walk(std::size_t begin, std::size_t end, std::size_t event_depth,
            std::size_t depth, layer_index_t frontier) {
    std::size_t i = begin;
    // Branching subgroups: trials with a further error, in event order.
    while (i != end && trials_[i].events.size() > event_depth) {
      const ErrorEvent event = trials_[i].events[event_depth];
      std::size_t j = i + 1;
      while (j != end && trials_[j].events.size() > event_depth &&
             trials_[j].events[event_depth] == event) {
        ++j;
      }
      // Advance this level's checkpoint error-free up to the event's layer
      // boundary; the previous frontier state is implicitly dropped (the
      // paper's S1 -> S2 advance).
      const layer_index_t target = event.layer + 1;
      if (target > frontier) {
        visitor_.on_advance(depth, frontier, target);
        frontier = target;
      }
      // Algorithm 1 stops recursing at singleton groups: a lone trial's
      // remaining suffix runs on one scratch state with no further
      // checkpoints (this is what keeps the MSV at the *shared* recursion
      // depth rather than the per-trial error count).
      if (j - i == 1) {
        replay_trial(i, event_depth, depth, frontier);
        i = j;
        continue;
      }
      // Branch: copy, inject the error, recurse on the subgroup — unless
      // that would leave the child level unable to fork its own scratch
      // state within the MSV budget; then replay each trial individually.
      if (options_.max_states == 0 || depth + 2 < options_.max_states) {
        visitor_.on_fork(depth);
        visitor_.on_error(depth + 1, event);
        walk(i, j, event_depth + 1, depth + 1, frontier);
        visitor_.on_drop(depth + 1);
      } else {
        for (std::size_t t = i; t != j; ++t) {
          replay_trial(t, event_depth, depth, frontier);
        }
      }
      i = j;
    }
    // Remaining trials have exactly `event_depth` errors: the error-free
    // continuation of this prefix. Run the tail of the circuit once.
    if (i != end) {
      const auto total = static_cast<layer_index_t>(ctx_.num_layers());
      if (total > frontier) {
        visitor_.on_advance(depth, frontier, total);
        frontier = total;
      }
      for (std::size_t t = i; t != end; ++t) {
        visitor_.on_finish(depth, static_cast<trial_index_t>(t), trials_[t]);
      }
    }
  }

  // Execute one trial's remaining events on a scratch copy of the current
  // checkpoint, sharing nothing with its group (the MSV-budget fallback).
  void replay_trial(std::size_t t, std::size_t event_depth, std::size_t depth,
                    layer_index_t frontier) {
    const TrialView trial = trials_[t];
    visitor_.on_fork(depth);
    layer_index_t f = frontier;
    for (std::size_t k = event_depth; k < trial.events.size(); ++k) {
      const ErrorEvent& event = trial.events[k];
      const layer_index_t target = event.layer + 1;
      if (target > f) {
        visitor_.on_advance(depth + 1, f, target);
        f = target;
      }
      visitor_.on_error(depth + 1, event);
    }
    const auto total = static_cast<layer_index_t>(ctx_.num_layers());
    if (total > f) {
      visitor_.on_advance(depth + 1, f, total);
    }
    visitor_.on_finish(depth + 1, static_cast<trial_index_t>(t), trial);
    visitor_.on_drop(depth + 1);
  }

  const CircuitContext& ctx_;
  const TrialSet& trials_;
  ScheduleVisitor& visitor_;
  const ScheduleOptions& options_;
};

}  // namespace

void schedule_trials(const CircuitContext& ctx, const TrialSet& trials,
                     ScheduleVisitor& visitor, const ScheduleOptions& options) {
  RQSIM_CHECK(is_reordered(trials), "schedule_trials: trials must be reordered first");
  RQSIM_CHECK(options.max_states == 0 || options.max_states >= 2,
              "schedule_trials: max_states must be 0 (unlimited) or >= 2");
  ScheduleWalker(ctx, trials, visitor, options).run();
}

opcount_t baseline_op_count(const CircuitContext& ctx, const TrialSet& trials) {
  return ctx.total_gate_ops() * static_cast<opcount_t>(trials.size()) +
         static_cast<opcount_t>(trials.total_errors());
}

opcount_t baseline_op_count(const CircuitContext& ctx, const std::vector<Trial>& trials) {
  return baseline_op_count(ctx, TrialSet(trials));
}

}  // namespace rqsim
