#include "sched/enumerate.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "dm/density_matrix.hpp"
#include "linalg/pauli.hpp"
#include "sched/backend.hpp"
#include "sched/order.hpp"
#include "sim/measure.hpp"

namespace rqsim {

namespace {

// One place an error can fire, with the exact probability of each operator.
struct ErrorSite {
  layer_index_t layer = 0;
  gate_index_t position = 0;
  double rate = 0.0;                 // total error probability at this site
  std::vector<double> op_probs;      // op_probs[k] = P(op code k+1 fires)
};

std::vector<ErrorSite> build_sites(const Circuit& circuit, const Layering& layering,
                                   const NoiseModel& noise) {
  std::vector<ErrorSite> sites;
  for (gate_index_t g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gates()[g];
    RQSIM_CHECK(gate.arity() <= 2,
                "enumerate_error_configurations: decompose 3-qubit gates first");
    const double rate = gate.arity() == 1
                            ? noise.single_qubit_rate(gate.qubits[0])
                            : noise.two_qubit_rate(gate.qubits[0], gate.qubits[1]);
    if (rate <= 0.0) {
      continue;
    }
    ErrorSite site;
    site.layer = layering.layer_of_gate[g];
    site.position = g;
    site.rate = rate;
    if (gate.arity() == 1) {
      const auto w = noise.single_pauli_weights(gate.qubits[0]);
      site.op_probs = {rate * w[0], rate * w[1], rate * w[2]};
    } else {
      site.op_probs.assign(kNumPairPaulis, rate / kNumPairPaulis);
    }
    sites.push_back(std::move(site));
  }
  if (noise.has_idle_noise()) {
    for (layer_index_t l = 0; l < layering.num_layers(); ++l) {
      for (qubit_t q = 0; q < circuit.num_qubits(); ++q) {
        const double rate = noise.idle_pauli_rate(q);
        if (rate <= 0.0) {
          continue;
        }
        ErrorSite site;
        site.layer = l;
        site.position = idle_position(circuit.num_gates(), q);
        site.rate = rate;
        const auto w = noise.idle_pauli_weights(q);
        site.op_probs = {rate * w[0], rate * w[1], rate * w[2]};
        sites.push_back(std::move(site));
      }
    }
  }
  std::sort(sites.begin(), sites.end(), [](const ErrorSite& a, const ErrorSite& b) {
    if (a.layer != b.layer) {
      return a.layer < b.layer;
    }
    return a.position < b.position;
  });
  return sites;
}

class Enumerator {
 public:
  Enumerator(const std::vector<ErrorSite>& sites, std::size_t max_errors,
             std::size_t max_configs, WeightedTrialSet& out)
      : sites_(sites), max_errors_(max_errors), max_configs_(max_configs), out_(out) {}

  void run() {
    double p0 = 1.0;
    for (const ErrorSite& site : sites_) {
      p0 *= 1.0 - site.rate;
    }
    current_.events.clear();
    emit(p0);
    if (max_errors_ > 0) {
      descend(0, p0, max_errors_);
    }
  }

 private:
  void emit(double probability) {
    RQSIM_CHECK(out_.trials.size() < max_configs_,
                "enumerate_error_configurations: configuration count exceeds limit; "
                "reduce max_errors or raise max_configs");
    out_.trials.push_back(current_);
    out_.probabilities.push_back(probability);
    out_.covered_mass += probability;
  }

  void descend(std::size_t first_site, double prob_so_far, std::size_t remaining) {
    for (std::size_t s = first_site; s < sites_.size(); ++s) {
      const ErrorSite& site = sites_[s];
      const double without = 1.0 - site.rate;
      for (std::size_t op = 0; op < site.op_probs.size(); ++op) {
        if (site.op_probs[op] <= 0.0) {
          continue;
        }
        ErrorEvent event;
        event.layer = site.layer;
        event.position = site.position;
        event.op = static_cast<std::uint8_t>(op + 1);
        current_.events.push_back(event);
        const double prob = prob_so_far * site.op_probs[op] / without;
        emit(prob);
        if (remaining > 1) {
          descend(s + 1, prob, remaining - 1);
        }
        current_.events.pop_back();
      }
    }
  }

  const std::vector<ErrorSite>& sites_;
  std::size_t max_errors_;
  std::size_t max_configs_;
  WeightedTrialSet& out_;
  Trial current_;
};

// Visitor accumulating weight * outcome-distribution per finished trial.
class WeightedDistBackend : public ScheduleVisitor {
 public:
  WeightedDistBackend(const CircuitContext& ctx, const std::vector<double>& weights,
                      TruncatedDistribution& result)
      : ctx_(ctx), weights_(weights), result_(result) {
    stack_.emplace_back(ctx.circuit.num_qubits());
    result_.max_live_states = 1;
  }

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override {
    apply_layers(ctx_, stack_[depth], from_layer, to_layer);
    result_.ops += ctx_.ops_in_layers(from_layer, to_layer);
    cached_probs_.reset();
  }

  void on_fork(std::size_t depth) override {
    stack_.push_back(stack_[depth]);
    result_.max_live_states = std::max(result_.max_live_states, stack_.size());
    cached_probs_.reset();
  }

  void on_error(std::size_t depth, const ErrorEvent& event) override {
    apply_error_event(ctx_, stack_[depth], event);
    result_.ops += 1;
    cached_probs_.reset();
  }

  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const TrialView& trial) override {
    (void)trial;
    if (!cached_probs_) {
      cached_probs_ =
          measurement_probabilities(stack_[depth], ctx_.circuit.measured_qubits());
    }
    const double weight = weights_[trial_index];
    for (std::size_t i = 0; i < cached_probs_->size(); ++i) {
      result_.probabilities[i] += weight * (*cached_probs_)[i];
    }
  }

  void on_drop(std::size_t depth) override {
    (void)depth;
    stack_.pop_back();
    cached_probs_.reset();
  }

 private:
  const CircuitContext& ctx_;
  const std::vector<double>& weights_;
  TruncatedDistribution& result_;
  std::vector<StateVector> stack_;
  std::optional<std::vector<double>> cached_probs_;
};

}  // namespace

WeightedTrialSet enumerate_error_configurations(const Circuit& circuit,
                                                const NoiseModel& noise,
                                                std::size_t max_errors,
                                                std::size_t max_configs) {
  circuit.validate();
  const Layering layering = layer_circuit(circuit);
  const std::vector<ErrorSite> sites = build_sites(circuit, layering, noise);

  WeightedTrialSet out;
  Enumerator(sites, max_errors, max_configs, out).run();

  // Reorder trials and carry the probabilities along.
  std::vector<std::size_t> order(out.trials.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return trial_order_less(out.trials[a], out.trials[b]);
  });
  WeightedTrialSet sorted;
  sorted.covered_mass = out.covered_mass;
  sorted.trials.reserve(order.size());
  sorted.probabilities.reserve(order.size());
  for (std::size_t idx : order) {
    sorted.trials.push_back(std::move(out.trials[idx]));
    sorted.probabilities.push_back(out.probabilities[idx]);
  }
  return sorted;
}

TruncatedDistribution truncated_exact_distribution(const Circuit& circuit,
                                                   const NoiseModel& noise,
                                                   std::size_t max_errors) {
  RQSIM_CHECK(circuit.num_measured() > 0,
              "truncated_exact_distribution: circuit has no measurements");
  WeightedTrialSet set = enumerate_error_configurations(circuit, noise, max_errors);
  const CircuitContext ctx(circuit);

  TruncatedDistribution result;
  result.covered_mass = set.covered_mass;
  result.num_configurations = set.trials.size();
  result.probabilities.assign(std::size_t{1} << circuit.num_measured(), 0.0);
  const TrialSet trials(set.trials);
  result.baseline_ops = baseline_op_count(ctx, trials);

  WeightedDistBackend backend(ctx, set.probabilities, result);
  schedule_trials(ctx, trials, backend);

  // Analytic measurement-flip channel on the accumulated distribution.
  std::vector<double> flips(circuit.num_measured());
  for (std::size_t bit = 0; bit < flips.size(); ++bit) {
    flips[bit] = noise.measurement_flip_rate(circuit.measured_qubits()[bit]);
  }
  result.probabilities = apply_measurement_flips(std::move(result.probabilities), flips);
  return result;
}

}  // namespace rqsim
