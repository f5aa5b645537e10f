#include "trial/stats.hpp"

#include <algorithm>

namespace rqsim {

TrialSetStats compute_trial_stats(const TrialSet& trials) {
  TrialSetStats stats;
  stats.num_trials = trials.size();
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const std::size_t k = trials.num_errors(t);
    stats.total_errors += k;
    stats.max_errors = std::max(stats.max_errors, k);
    if (k == 0) {
      ++stats.error_free_trials;
    }
    if (k >= stats.error_count_histogram.size()) {
      stats.error_count_histogram.resize(k + 1, 0);
    }
    ++stats.error_count_histogram[k];
  }
  stats.mean_errors = trials.empty()
                          ? 0.0
                          : static_cast<double>(stats.total_errors) /
                                static_cast<double>(trials.size());
  return stats;
}

TrialSetStats compute_trial_stats(const std::vector<Trial>& trials) {
  return compute_trial_stats(TrialSet(trials));
}

double mean_consecutive_shared_prefix(const TrialSet& trials) {
  if (trials.size() < 2) {
    return 0.0;
  }
  std::size_t total = 0;
  for (std::size_t i = 1; i < trials.size(); ++i) {
    total += shared_prefix_length(trials[i - 1], trials[i]);
  }
  return static_cast<double>(total) / static_cast<double>(trials.size() - 1);
}

}  // namespace rqsim
