#include "sched/enumerate.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "dm/density_matrix.hpp"
#include "linalg/pauli.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"

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
    current_.clear();
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
    out_.trials.push_back({current_, 0, 0});
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
        current_.push_back(event);
        const double prob = prob_so_far * site.op_probs[op] / without;
        emit(prob);
        if (remaining > 1) {
          descend(s + 1, prob, remaining - 1);
        }
        current_.pop_back();
      }
    }
  }

  const std::vector<ErrorSite>& sites_;
  std::size_t max_errors_;
  std::size_t max_configs_;
  WeightedTrialSet& out_;
  std::vector<ErrorEvent> current_;
};

// Adds weight * outcome distribution of every finishing configuration, in
// trial order within each group.
class WeightedDistSink : public TreeTrialSink {
 public:
  WeightedDistSink(const std::vector<double>& weights, std::vector<double>& distribution)
      : weights_(weights), distribution_(distribution) {}

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    (void)node;
    (void)state;
    for (std::size_t t = first_trial; t < first_trial + count; ++t) {
      const double weight = weights_[t];
      for (std::size_t i = 0; i < probs->size(); ++i) {
        distribution_[i] += weight * (*probs)[i];
      }
    }
  }

  /// Enumeration builds its tree without frame collapse.
  void on_finish_frames(std::size_t, const std::vector<FrameTrial>&, const StateVector&,
                        const std::vector<double>*) override {
    throw Error("truncated_exact_distribution: unexpected frame-collapsed trials");
  }

 private:
  const std::vector<double>& weights_;
  std::vector<double>& distribution_;
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
  const std::vector<std::uint32_t> order = reorder_permutation(out.trials);
  out.trials.reorder(order);
  std::vector<double> probabilities(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    probabilities[p] = out.probabilities[order[p]];
  }
  out.probabilities = std::move(probabilities);
  return out;
}

TruncatedDistribution truncated_exact_distribution(const Circuit& circuit,
                                                   const NoiseModel& noise,
                                                   std::size_t max_errors) {
  RQSIM_CHECK(circuit.num_measured() > 0,
              "truncated_exact_distribution: circuit has no measurements");
  const WeightedTrialSet set = enumerate_error_configurations(circuit, noise, max_errors);
  const CircuitContext ctx(circuit);

  TruncatedDistribution result;
  result.covered_mass = set.covered_mass;
  result.num_configurations = set.trials.size();
  result.probabilities.assign(std::size_t{1} << circuit.num_measured(), 0.0);
  result.baseline_ops = baseline_op_count(ctx, set.trials);

  // At one thread the executor runs every chunk inline in child order and
  // finishes each tail after its children: the sequential walker's finish
  // order, so every sum accumulates in a fixed order.
  const ExecTree tree = build_exec_tree(ctx, set.trials);
  WeightedDistSink sink(set.probabilities, result.probabilities);
  result.ops = execute_tree(ctx, tree, set.trials, TreeExecConfig{}, sink).ops;
  result.max_live_states = tree.peak_demand;

  // Analytic measurement-flip channel on the accumulated distribution.
  std::vector<double> flips(circuit.num_measured());
  for (std::size_t bit = 0; bit < flips.size(); ++bit) {
    flips[bit] = noise.measurement_flip_rate(circuit.measured_qubits()[bit]);
  }
  result.probabilities = apply_measurement_flips(std::move(result.probabilities), flips);
  return result;
}

}  // namespace rqsim
