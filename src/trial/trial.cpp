#include "trial/trial.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rqsim {

TrialSet::TrialSet(const std::vector<Trial>& trials) {
  std::size_t events = 0;
  for (const Trial& trial : trials) {
    events += trial.events.size();
  }
  reserve(trials.size(), events);
  for (const Trial& trial : trials) {
    push_back(trial);
  }
}

void TrialSet::reserve(std::size_t trials, std::size_t events) {
  events_.reserve(events);
  offsets_.reserve(trials + 1);
  flip_masks_.reserve(trials);
  seeds_.reserve(trials);
}

void TrialSet::push_back(const TrialView& trial) {
  if (offsets_.empty()) {
    offsets_.push_back(0);  // a moved-from set
  }
  events_.insert(events_.end(), trial.events.begin(), trial.events.end());
  offsets_.push_back(events_.size());
  flip_masks_.push_back(trial.meas_flip_mask);
  seeds_.push_back(trial.meas_seed);
}

void TrialSet::reorder(std::span<const std::uint32_t> order) {
  RQSIM_CHECK(order.size() == size(), "TrialSet::reorder: not a permutation");
  // A random gather: fetch a few trials ahead of the copy.
  constexpr std::size_t kAhead = 16;
  const std::size_t n = order.size();
  {
    std::vector<std::uint64_t> moved(n);
    for (std::vector<std::uint64_t>* field : {&flip_masks_, &seeds_}) {
      const std::uint64_t* values = field->data();
      for (std::size_t p = 0; p < n; ++p) {
        if (p + kAhead < n) {
          __builtin_prefetch(values + order[p + kAhead]);
        }
        moved[p] = values[order[p]];
      }
      field->swap(moved);
    }
  }
  std::vector<ErrorEvent> events;
  events.reserve(events_.size());
  std::vector<std::size_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kAhead < n) {
      __builtin_prefetch(offsets_.data() + order[p + kAhead]);
      if (p + kAhead / 2 < n) {
        __builtin_prefetch(events_.data() + offsets_[order[p + kAhead / 2]]);
      }
    }
    const std::uint32_t t = order[p];
    events.insert(events.end(), events_.begin() + static_cast<std::ptrdiff_t>(offsets_[t]),
                  events_.begin() + static_cast<std::ptrdiff_t>(offsets_[t + 1]));
    offsets.push_back(events.size());
  }
  events_ = std::move(events);
  offsets_ = std::move(offsets);
}

std::vector<Trial> TrialSet::to_trials() const {
  std::vector<Trial> trials(size());
  for (std::size_t t = 0; t < size(); ++t) {
    const TrialView view = (*this)[t];
    trials[t].events.assign(view.events.begin(), view.events.end());
    trials[t].meas_flip_mask = view.meas_flip_mask;
    trials[t].meas_seed = view.meas_seed;
  }
  return trials;
}

std::size_t shared_prefix_length(const TrialView& a, const TrialView& b) {
  const std::size_t limit = std::min(a.events.size(), b.events.size());
  std::size_t k = 0;
  while (k < limit && a.events[k] == b.events[k]) {
    ++k;
  }
  return k;
}

}  // namespace rqsim
