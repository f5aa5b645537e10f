// Monte Carlo trial representation.
//
// A trial is a sparse list of error events — one per gate that misfired —
// plus a classical measurement-flip mask. Events are keyed by
// (layer, position, op): `layer` is the ASAP layer whose end hosts the
// error, `position` is the index of the gate the error is attached to, and
// `op` encodes the injected Pauli (1..3 = X/Y/Z for single-qubit gates,
// 1..15 = non-identity Pauli pair index for two-qubit gates).
//
// Idle errors (noise without an operation, paper Section III.B.1) use a
// virtual position past the gate range: position = num_gates + qubit, with
// op in 1..3. Within a layer they therefore sort after all gate errors,
// giving every execution path the same deterministic order.
//
// Trials live in one flat container, TrialSet: a single ErrorEvent array
// plus, per trial, an offset into it, a flip mask and a measurement seed.
// Error-free trials (about half of a NISQ-rate run) store no events, and no
// trial owns a heap allocation. `set[t]` is a TrialView with the members
// every consumer reads. `Trial` remains as a standalone value type for
// hand-built inputs and the std::vector<Trial> adapters; each of those
// converts once into a TrialSet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace rqsim {

struct ErrorEvent {
  layer_index_t layer = 0;
  gate_index_t position = 0;
  std::uint8_t op = 0;

  friend bool operator==(const ErrorEvent& a, const ErrorEvent& b) {
    return a.layer == b.layer && a.position == b.position && a.op == b.op;
  }

  /// Strict ordering by (layer, position, op) — the reorder key.
  friend bool operator<(const ErrorEvent& a, const ErrorEvent& b) {
    if (a.layer != b.layer) {
      return a.layer < b.layer;
    }
    if (a.position != b.position) {
      return a.position < b.position;
    }
    return a.op < b.op;
  }
};

struct Trial {
  /// Error events sorted by (layer, position).
  std::vector<ErrorEvent> events;

  /// Bit k set = classical measurement bit k is flipped.
  std::uint64_t meas_flip_mask = 0;

  /// Seed of this trial's private outcome-sampling stream (see
  /// trial/generator.hpp, assign_measurement_seeds). Sampling from a
  /// per-trial seed instead of one shared stream makes the sampled
  /// histogram independent of execution order, which is what lets the
  /// tree executor at any thread count and the baseline loop produce the
  /// same histogram bit for bit under any thread interleaving.
  std::uint64_t meas_seed = 0;

  std::size_t num_errors() const { return events.size(); }
};

/// Read-only view of one trial, with Trial's member names.
struct TrialView {
  std::span<const ErrorEvent> events;
  std::uint64_t meas_flip_mask = 0;
  std::uint64_t meas_seed = 0;

  TrialView() = default;
  TrialView(std::span<const ErrorEvent> events_in, std::uint64_t flip_mask,
            std::uint64_t seed)
      : events(events_in), meas_flip_mask(flip_mask), meas_seed(seed) {}
  /// A Trial views as itself, so every TrialView function takes a Trial.
  TrialView(const Trial& trial)  // NOLINT(google-explicit-constructor)
      : events(trial.events), meas_flip_mask(trial.meas_flip_mask),
        meas_seed(trial.meas_seed) {}

  std::size_t num_errors() const { return events.size(); }
};

/// A flat, ordered collection of trials (see the file comment).
class TrialSet {
 public:
  TrialSet() = default;

  /// Flatten a trial vector: the one conversion each adapter makes.
  explicit TrialSet(const std::vector<Trial>& trials);

  std::size_t size() const { return flip_masks_.size(); }
  bool empty() const { return flip_masks_.empty(); }

  /// Error events over all trials.
  std::size_t total_errors() const { return events_.size(); }

  TrialView operator[](std::size_t t) const {
    return {std::span<const ErrorEvent>(events_.data() + offsets_[t],
                                        offsets_[t + 1] - offsets_[t]),
            flip_masks_[t], seeds_[t]};
  }

  std::size_t num_errors(std::size_t t) const { return offsets_[t + 1] - offsets_[t]; }

  /// Index of trial t's first event in the flat event array.
  std::size_t event_offset(std::size_t t) const { return offsets_[t]; }
  std::span<const ErrorEvent> all_events() const { return events_; }

  void reserve(std::size_t trials, std::size_t events);

  /// Append a copy of `trial`.
  void push_back(const TrialView& trial);

  void set_meas_seed(std::size_t t, std::uint64_t seed) { seeds_[t] = seed; }

  /// Rearrange the set so that the trial at order[p] moves to position p
  /// (`order` is a permutation of the positions).
  void reorder(std::span<const std::uint32_t> order);

  std::vector<Trial> to_trials() const;

  class const_iterator {
   public:
    const_iterator(const TrialSet* set, std::size_t t) : set_(set), t_(t) {}
    TrialView operator*() const { return (*set_)[t_]; }
    const_iterator& operator++() {
      ++t_;
      return *this;
    }
    bool operator==(const const_iterator& other) const { return t_ == other.t_; }

   private:
    const TrialSet* set_;
    std::size_t t_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  std::vector<ErrorEvent> events_;
  std::vector<std::size_t> offsets_ = {0};  // size() + 1 entries (none when moved from)
  std::vector<std::uint64_t> flip_masks_;
  std::vector<std::uint64_t> seeds_;
};

/// Length of the longest shared event prefix of two trials.
std::size_t shared_prefix_length(const TrialView& a, const TrialView& b);

/// Idle-event position encoding (relative to a circuit's gate count).
constexpr gate_index_t idle_position(std::size_t num_gates, qubit_t qubit) {
  return static_cast<gate_index_t>(num_gates) + qubit;
}
constexpr bool is_idle_position(std::size_t num_gates, gate_index_t position) {
  return position >= num_gates;
}
constexpr qubit_t idle_qubit(std::size_t num_gates, gate_index_t position) {
  return position - static_cast<gate_index_t>(num_gates);
}

}  // namespace rqsim
