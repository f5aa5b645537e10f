// Test helper: run the cached prefix tree over a reordered trial list and
// keep every trial's final statevector, so tests can compare each one
// bitwise against simulate_trial. Memory grows with the trial count, which
// is why this sink lives with the tests rather than in the library.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

/// Records the final state of every trial by index. Calls for distinct
/// trials may arrive concurrently; each writes only its own slots.
class RecordingSink : public TreeTrialSink {
 public:
  explicit RecordingSink(std::size_t num_trials) : states(num_trials) {}

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    (void)node;
    (void)probs;
    for (std::size_t t = first_trial; t < first_trial + count; ++t) {
      states[t] = state;
    }
  }

  /// Frame-collapsed trials never own a statevector; run_recorded builds
  /// trees without frame collapse, so reaching here is a test bug.
  void on_finish_frames(std::size_t, const std::vector<FrameTrial>&, const StateVector&,
                        const std::vector<double>*) override {
    throw std::logic_error("RecordingSink: frame-collapsed trials have no state");
  }

  std::vector<StateVector> states;  // indexed like the trial list
};

struct RecordedRun {
  std::vector<StateVector> final_states;  // indexed like `trials`
  TreeExecStats stats;
  ExecTree tree;
};

/// Build the prefix tree of `trials` (already reordered) with `options` and
/// execute it on `threads` workers, recording every final state.
inline RecordedRun run_recorded(const CircuitContext& ctx, const std::vector<Trial>& trials,
                                std::size_t threads, const ScheduleOptions& options = {}) {
  RecordedRun run;
  run.tree = build_exec_tree(ctx, trials, options);
  TreeExecConfig config;
  config.num_threads = threads;
  config.max_states = options.max_states;
  RecordingSink sink(trials.size());
  run.stats = execute_tree(ctx, run.tree, trials, config, sink);
  run.final_states = std::move(sink.states);
  return run;
}

}  // namespace rqsim
