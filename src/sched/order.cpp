#include "sched/order.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rqsim {

bool trial_order_less(const TrialView& a, const TrialView& b) {
  const std::size_t limit = std::min(a.events.size(), b.events.size());
  for (std::size_t k = 0; k < limit; ++k) {
    if (a.events[k] < b.events[k]) {
      return true;
    }
    if (b.events[k] < a.events[k]) {
      return false;
    }
  }
  // Shared prefix: the trial with *more* events sorts first, so the
  // error-free continuation of a prefix is executed last.
  return a.events.size() > b.events.size();
}

bool is_reordered(const TrialSet& trials) {
  for (std::size_t i = 1; i < trials.size(); ++i) {
    if (trial_order_less(trials[i], trials[i - 1])) {
      return false;
    }
  }
  return true;
}

TrialOrderer::TrialOrderer(const TrialSet& trials) : trials_(trials) {
  const std::size_t n = trials.size();
  RQSIM_CHECK(n < std::numeric_limits<std::uint32_t>::max() &&
                  trials.total_errors() < std::numeric_limits<std::uint32_t>::max(),
              "reorder: trial sets are limited to 2^32 trials and events");
  order_.resize(n);
  first_.resize(n);
  count_.resize(n);
  keys_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    order_[t] = static_cast<std::uint32_t>(t);
    first_[t] = static_cast<std::uint32_t>(trials.event_offset(t));
    count_[t] = static_cast<std::uint32_t>(trials.num_errors(t));
  }
}

void TrialOrderer::build_ranks() {
  ranked_ = true;
  const std::span<const ErrorEvent> events = trials_.all_events();
  rank_.resize(events.size());
  if (events.empty()) {
    return;
  }
  layer_index_t max_layer = 0;
  gate_index_t max_position = 0;
  for (const ErrorEvent& e : events) {
    RQSIM_CHECK(e.op < 16, "reorder: error event op codes must be below 16");
    max_layer = std::max(max_layer, e.layer);
    max_position = std::max(max_position, e.position);
  }
  // Number the positions that occur, in position order; then mark the
  // (layer, position) pairs in a layer-major table over those and number
  // the marked cells in table order.
  constexpr std::size_t kMaxCells = std::size_t{1} << 28;
  RQSIM_CHECK(max_position < kMaxCells, "reorder: event position out of range");
  std::vector<std::uint32_t> column(std::size_t{max_position} + 1, 0);
  for (const ErrorEvent& e : events) {
    column[e.position] = 1;
  }
  std::uint32_t width = 0;
  for (std::uint32_t& c : column) {
    const std::uint32_t used = c;
    c = width;
    width += used;
  }
  RQSIM_CHECK(std::size_t{max_layer} + 1 <= (kMaxCells - 1) / width,
              "reorder: (layer, position) range too large");
  std::vector<std::uint32_t> slot((std::size_t{max_layer} + 1) * width, 0);
  const auto cell = [&](const ErrorEvent& e) {
    return std::size_t{e.layer} * width + column[e.position];
  };
  for (const ErrorEvent& e : events) {
    slot[cell(e)] = 1;
  }
  std::uint32_t next = 0;
  for (std::uint32_t& c : slot) {
    const std::uint32_t used = c;
    c = next;
    next += used;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    rank_[i] = slot[cell(events[i])] * 16 + events[i].op;
  }
  exhausted_ = next * 16;
}

void TrialOrderer::permute(std::size_t begin, std::size_t end,
                           const std::uint32_t* dest) {
  const std::size_t n = end - begin;
  moved_.resize(n);
  for (std::vector<std::uint32_t>* field : {&order_, &first_, &count_, &keys_}) {
    std::uint32_t* values = field->data() + begin;
    for (std::size_t i = 0; i < n; ++i) {
      moved_[dest[i]] = values[i];
    }
    std::copy(moved_.begin(), moved_.end(), values);
  }
}

void TrialOrderer::sort_level(std::size_t begin, std::size_t end, std::size_t k) {
  load_keys(begin, end, k);
  const std::size_t n = end - begin;
  if (n < 2) {
    return;
  }
  const std::uint32_t* keys = keys_.data() + begin;
  dest_.resize(n);
  const std::size_t buckets = std::size_t{exhausted_} + 1;
  if (n >= buckets) {
    // Counting sort: stable by construction.
    counts_.assign(buckets, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts_[keys[i]];
    }
    std::uint32_t next = 0;
    for (std::uint32_t& count : counts_) {
      const std::uint32_t c = count;
      count = next;
      next += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dest_[i] = counts_[keys[i]]++;
    }
  } else {
    // Comparison sort on (rank, index in the group): the stable sort by
    // rank. A group lists its trials in generation order, so this is also
    // the order by (rank, generation index).
    pairs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pairs_[i] = (std::uint64_t{keys[i]} << 32) | i;
    }
    std::sort(pairs_.begin(), pairs_.end());
    for (std::size_t i = 0; i < n; ++i) {
      dest_[static_cast<std::uint32_t>(pairs_[i])] = static_cast<std::uint32_t>(i);
    }
  }
  permute(begin, end, dest_.data());
  if (n == size()) {
    // Only the root group is this large: release its temporary buffers.
    dest_ = {};
    moved_ = {};
  }
}

void TrialOrderer::load_keys(std::size_t begin, std::size_t end, std::size_t k) {
  if (!ranked_) {
    build_ranks();
  }
  for (std::size_t p = begin; p != end; ++p) {
    keys_[p] = rank_key(p, k);
  }
}

void TrialOrderer::sort_from(std::size_t begin, std::size_t end, std::size_t k) {
  if (end - begin < 2) {
    return;
  }
  sort_level(begin, end, k);
  std::size_t i = begin;
  while (i != end && keys_[i] != exhausted_) {
    std::size_t j = i + 1;
    while (j != end && keys_[j] == keys_[i]) {
      ++j;
    }
    sort_from(i, j, k + 1);
    i = j;
  }
}

std::vector<std::uint32_t> reorder_permutation(const TrialSet& trials) {
  TrialOrderer orderer(trials);
  orderer.sort_from(0, trials.size(), 0);
  return orderer.take_order();
}

TrialSet reorder_trials(TrialSet trials) {
  trials.reorder(reorder_permutation(trials));
  return trials;
}

void reorder_trials(std::vector<Trial>& trials) {
  trials = reorder_trials(TrialSet(trials)).to_trials();
}

MergedTrials merge_reordered(const std::vector<const TrialSet*>& jobs) {
  MergedTrials out;
  std::size_t total = 0;
  std::size_t events = 0;
  for (const TrialSet* job : jobs) {
    total += job->size();
    events += job->total_errors();
  }
  out.trials.reserve(total, events);
  out.trial_jobs.reserve(total);
  std::vector<std::size_t> head(jobs.size(), 0);
  for (std::size_t m = 0; m < total; ++m) {
    std::size_t best = jobs.size();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (head[j] != jobs[j]->size() &&
          (best == jobs.size() ||
           trial_order_less((*jobs[j])[head[j]], (*jobs[best])[head[best]]))) {
        best = j;
      }
    }
    out.trials.push_back((*jobs[best])[head[best]++]);
    out.trial_jobs.push_back(best);
  }
  return out;
}

}  // namespace rqsim
