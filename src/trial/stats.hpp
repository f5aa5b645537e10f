// Descriptive statistics over a trial set — used by reports and to sanity
// check generated workloads against the error model.
#pragma once

#include <cstddef>
#include <vector>

#include "trial/trial.hpp"

namespace rqsim {

struct TrialSetStats {
  std::size_t num_trials = 0;
  std::size_t total_errors = 0;
  std::size_t max_errors = 0;
  std::size_t error_free_trials = 0;
  double mean_errors = 0.0;
  /// histogram[k] = number of trials with exactly k errors.
  std::vector<std::size_t> error_count_histogram;
};

TrialSetStats compute_trial_stats(const TrialSet& trials);

/// std::vector<Trial> adapter.
TrialSetStats compute_trial_stats(const std::vector<Trial>& trials);

/// Mean shared-prefix length between consecutive trials in the given order
/// — the quantity the reorder maximizes.
double mean_consecutive_shared_prefix(const TrialSet& trials);

}  // namespace rqsim
