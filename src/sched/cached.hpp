// Consecutive-prefix caching WITHOUT reordering — the ablation executor.
//
// Caching alone can share the error-prefix computation between *adjacent*
// trials in whatever order they were generated. Because a later trial may
// revisit an earlier layer, checkpoints must stay pinned at each error
// boundary of the current trial (they cannot be advanced in place and
// dropped the way the reordered walker does), so the number of maintained
// states grows to (errors-per-trial + 1) and far less computation overlaps.
// Comparing this executor against the reordered scheduler isolates how much
// of the paper's win comes from the reorder itself.
#pragma once

#include <vector>

#include "sched/plan.hpp"
#include "trial/trial.hpp"

namespace rqsim {

struct ConsecutiveCacheResult {
  opcount_t ops = 0;
  std::size_t max_live_states = 0;
};

/// Account the cost of consecutive-prefix caching over `trials` in the
/// given order (no statevectors touched).
ConsecutiveCacheResult consecutive_cached_count(const CircuitContext& ctx,
                                                const TrialSet& trials);

}  // namespace rqsim
