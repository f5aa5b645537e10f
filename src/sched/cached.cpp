#include "sched/cached.hpp"

#include <algorithm>

namespace rqsim {

ConsecutiveCacheResult consecutive_cached_count(const CircuitContext& ctx,
                                                const TrialSet& trials) {
  ConsecutiveCacheResult result;
  if (trials.empty()) {
    return result;
  }
  result.max_live_states = 1;
  TrialView prev;
  const auto num_layers = static_cast<layer_index_t>(ctx.num_layers());
  for (const TrialView trial : trials) {
    const std::size_t shared = shared_prefix_length(prev, trial);
    // Checkpoint k (k >= 1) holds the state right after event k, advanced
    // through that event's layer; checkpoint 0 is the initial state.
    const layer_index_t frontier =
        shared == 0 ? 0 : trial.events[shared - 1].layer + 1;
    result.ops += ctx.ops_in_layers(frontier, num_layers);
    result.ops += static_cast<opcount_t>(trial.events.size() - shared);
    // Checkpoints kept while this trial runs: one per error event plus the
    // initial state (all may be needed by the next trial).
    result.max_live_states =
        std::max(result.max_live_states, trial.events.size() + 1);
    prev = trial;
  }
  return result;
}

}  // namespace rqsim
