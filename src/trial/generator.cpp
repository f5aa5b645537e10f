#include "trial/generator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "linalg/pauli.hpp"

namespace rqsim {

namespace {

// Sample an op code 1..3 (X/Y/Z) from normalized weights.
std::uint8_t sample_biased_pauli(const std::array<double, 3>& weights, Rng& rng) {
  const double r = rng.uniform();
  if (r < weights[0]) {
    return 1;
  }
  if (r < weights[0] + weights[1]) {
    return 2;
  }
  return 3;
}

}  // namespace

Trial generate_trial(const Circuit& circuit, const Layering& layering,
                     const NoiseModel& noise, Rng& rng) {
  RQSIM_CHECK(layering.layer_of_gate.size() == circuit.num_gates(),
              "generate_trial: layering does not match circuit");
  Trial trial;
  for (gate_index_t g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gates()[g];
    const int arity = gate.arity();
    RQSIM_CHECK(arity <= 2,
                "generate_trial: circuit must be decomposed to 1- and 2-qubit gates");
    const double rate = arity == 1
                            ? noise.single_qubit_rate(gate.qubits[0])
                            : noise.two_qubit_rate(gate.qubits[0], gate.qubits[1]);
    if (rate <= 0.0 || !rng.bernoulli(rate)) {
      continue;
    }
    ErrorEvent event;
    event.layer = layering.layer_of_gate[g];
    event.position = g;
    if (arity == 1) {
      event.op = sample_biased_pauli(noise.single_pauli_weights(gate.qubits[0]), rng);
    } else {
      event.op = static_cast<std::uint8_t>(1 + rng.uniform_int(kNumPairPaulis));
    }
    trial.events.push_back(event);
  }
  // Idle errors: per layer, per qubit.
  if (noise.has_idle_noise()) {
    for (layer_index_t l = 0; l < layering.num_layers(); ++l) {
      for (qubit_t q = 0; q < circuit.num_qubits(); ++q) {
        const double rate = noise.idle_pauli_rate(q);
        if (rate > 0.0 && rng.bernoulli(rate)) {
          ErrorEvent event;
          event.layer = l;
          event.position = idle_position(circuit.num_gates(), q);
          event.op = sample_biased_pauli(noise.idle_pauli_weights(q), rng);
          trial.events.push_back(event);
        }
      }
    }
  }
  // Gate-index order is not layer order in general; sort into execution order.
  std::sort(trial.events.begin(), trial.events.end());

  for (std::size_t bit = 0; bit < circuit.num_measured(); ++bit) {
    const double flip = noise.measurement_flip_rate(circuit.measured_qubits()[bit]);
    if (flip > 0.0 && rng.bernoulli(flip)) {
      trial.meas_flip_mask |= std::uint64_t{1} << bit;
    }
  }
  return trial;
}

// Margin argument for u_hi. Let r = rate in (0, 1), n = size >= 1 and
// eps = 2^-53. The exact skip is s(u) = floor(fl(fl(log1p(-u)) * c)) with
// c = fl(1 / fl(log1p(-r))) < 0. Every libm call used here (log1p, expm1)
// is within 1 ulp, i.e. a relative error of at most 2 eps, so the product
// is (log(1-u) / log(1-r)) * (1 + d) with |d| <= 8 eps = 2^-50. Hence if
// log(1-u) / log(1-r) >= n (1 + 2^-40), the product exceeds n and s(u) >= n.
// Because log(1-u) is decreasing, that holds for every u >= 1 - e^z with
// z = n (1 + 2^-40) log(1-r). The code evaluates z with the wider margin
// 2^-39, whose relative rounding error (<= 4 eps) keeps the computed z at
// or below the true z; 1 - e^z is then evaluated by expm1 (<= 2 eps) and
// raised by two ulps, which covers that last rounding. So u_hi is at or
// above 1 - e^z, and every u >= u_hi skips at least n positions. When
// (1-r)^n is below half an ulp of 1, u_hi rounds to >= 1 and never fires.
GeometricSkip::GeometricSkip(double rate, std::size_t size)
    : inv_log_keep(1.0 / std::log1p(-rate)) {
  RQSIM_CHECK(rate > 0.0 && rate < 1.0 && size > 0,
              "GeometricSkip: rate must lie in (0, 1) and size be positive");
  const double z =
      static_cast<double>(size) * (1.0 + 0x1.0p-39) * std::log1p(-rate);
  u_hi = std::nextafter(std::nextafter(-std::expm1(z), 2.0), 2.0);
}

double GeometricSkip::skip(double u) const {
  return std::floor(std::log1p(-u) * inv_log_keep);
}

namespace {

// Gates sharing one error rate, sampled together with geometric skips
// (rate < 1; a rate of exactly 1 hits every gate and draws nothing).
struct RateClass {
  double rate = 0.0;
  std::vector<gate_index_t> gates;
};

std::vector<RateClass> build_rate_classes(const Circuit& circuit,
                                          const NoiseModel& noise) {
  std::vector<RateClass> classes;
  for (gate_index_t g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gates()[g];
    const int arity = gate.arity();
    RQSIM_CHECK(arity <= 2,
                "generate_trials: circuit must be decomposed to 1- and 2-qubit gates");
    const double rate = arity == 1
                            ? noise.single_qubit_rate(gate.qubits[0])
                            : noise.two_qubit_rate(gate.qubits[0], gate.qubits[1]);
    if (rate <= 0.0) {
      continue;
    }
    auto it = std::find_if(classes.begin(), classes.end(),
                           [rate](const RateClass& c) { return c.rate == rate; });
    if (it == classes.end()) {
      RateClass c;
      c.rate = rate;
      classes.push_back(std::move(c));
      it = classes.end() - 1;
    }
    it->gates.push_back(g);
  }
  return classes;
}

// Qubits sharing one idle rate; sampled over the flattened
// (layer-major, qubit-minor) position sequence with geometric skips.
struct IdleClass {
  double rate = 0.0;
  std::vector<qubit_t> qubits;
};

std::vector<IdleClass> build_idle_classes(const Circuit& circuit,
                                          const NoiseModel& noise) {
  std::vector<IdleClass> classes;
  if (!noise.has_idle_noise()) {
    return classes;
  }
  for (qubit_t q = 0; q < circuit.num_qubits(); ++q) {
    const double rate = noise.idle_pauli_rate(q);
    if (rate <= 0.0) {
      continue;
    }
    auto it = std::find_if(classes.begin(), classes.end(),
                           [rate](const IdleClass& c) { return c.rate == rate; });
    if (it == classes.end()) {
      IdleClass c;
      c.rate = rate;
      classes.push_back(std::move(c));
      it = classes.end() - 1;
    }
    it->qubits.push_back(q);
  }
  return classes;
}

/// Advance a class's cursor `index` over `size` positions to its next
/// error with one geometric draw; false once the class has no further
/// error. The first draw (index 0) takes the log-free exit when it skips
/// the whole class.
bool next_error(const std::optional<GeometricSkip>& skip, std::size_t size,
                std::size_t& index, Rng& rng) {
  if (index >= size) {
    return false;
  }
  if (!skip) {
    return true;  // rate 1: every position errs
  }
  const double u = rng.uniform();
  if (index == 0 && u >= skip->u_hi) {
    return false;
  }
  const double jump = skip->skip(u);
  if (jump >= static_cast<double>(size - index)) {
    return false;
  }
  index += static_cast<std::size_t>(jump);
  return true;
}

std::optional<GeometricSkip> make_skip(double rate, std::size_t size) {
  if (rate >= 1.0 || size == 0) {
    return std::nullopt;
  }
  return GeometricSkip(rate, size);
}

}  // namespace

TrialSet generate_trial_set(const Circuit& circuit, const Layering& layering,
                            const NoiseModel& noise, std::size_t num_trials,
                            Rng& rng) {
  RQSIM_CHECK(layering.layer_of_gate.size() == circuit.num_gates(),
              "generate_trials: layering does not match circuit");
  const std::vector<RateClass> classes = build_rate_classes(circuit, noise);
  const std::vector<IdleClass> idle_classes = build_idle_classes(circuit, noise);
  const std::size_t num_layers = layering.num_layers();

  double expected_errors = 0.0;
  std::vector<std::optional<GeometricSkip>> skips;
  for (const RateClass& cls : classes) {
    skips.push_back(make_skip(cls.rate, cls.gates.size()));
    expected_errors += cls.rate * static_cast<double>(cls.gates.size());
  }
  std::vector<std::optional<GeometricSkip>> idle_skips;
  for (const IdleClass& cls : idle_classes) {
    const std::size_t total = num_layers * cls.qubits.size();
    idle_skips.push_back(make_skip(cls.rate, total));
    expected_errors += cls.rate * static_cast<double>(total);
  }

  std::vector<double> meas_rates(circuit.num_measured());
  for (std::size_t bit = 0; bit < circuit.num_measured(); ++bit) {
    meas_rates[bit] = noise.measurement_flip_rate(circuit.measured_qubits()[bit]);
  }

  TrialSet trials;
  trials.reserve(num_trials, static_cast<std::size_t>(
                                 1.1 * expected_errors * static_cast<double>(num_trials)));
  std::vector<ErrorEvent> events;  // the current trial's, reused
  for (std::size_t i = 0; i < num_trials; ++i) {
    events.clear();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::vector<gate_index_t>& gates = classes[c].gates;
      for (std::size_t index = 0; next_error(skips[c], gates.size(), index, rng);
           ++index) {
        const gate_index_t g = gates[index];
        ErrorEvent event;
        event.layer = layering.layer_of_gate[g];
        event.position = g;
        if (circuit.gates()[g].arity() == 1) {
          event.op =
              sample_biased_pauli(noise.single_pauli_weights(circuit.gates()[g].qubits[0]), rng);
        } else {
          event.op = static_cast<std::uint8_t>(1 + rng.uniform_int(kNumPairPaulis));
        }
        events.push_back(event);
      }
    }
    for (std::size_t c = 0; c < idle_classes.size(); ++c) {
      const std::vector<qubit_t>& qubits = idle_classes[c].qubits;
      const std::size_t width = qubits.size();
      for (std::size_t index = 0;
           next_error(idle_skips[c], num_layers * width, index, rng); ++index) {
        const qubit_t q = qubits[index % width];
        ErrorEvent event;
        event.layer = static_cast<layer_index_t>(index / width);
        event.position = idle_position(circuit.num_gates(), q);
        event.op = sample_biased_pauli(noise.idle_pauli_weights(q), rng);
        events.push_back(event);
      }
    }
    std::sort(events.begin(), events.end());
    std::uint64_t flip_mask = 0;
    for (std::size_t bit = 0; bit < meas_rates.size(); ++bit) {
      if (meas_rates[bit] > 0.0 && rng.bernoulli(meas_rates[bit])) {
        flip_mask |= std::uint64_t{1} << bit;
      }
    }
    trials.push_back(TrialView(events, flip_mask, 0));
  }
  return trials;
}

void assign_measurement_seeds(TrialSet& trials, Rng& rng) {
  for (std::size_t t = 0; t < trials.size(); ++t) {
    trials.set_meas_seed(t, rng.next_u64());
  }
}

std::vector<Trial> generate_trials(const Circuit& circuit, const Layering& layering,
                                   const NoiseModel& noise, std::size_t num_trials,
                                   Rng& rng) {
  return generate_trial_set(circuit, layering, noise, num_trials, rng).to_trials();
}

void assign_measurement_seeds(std::vector<Trial>& trials, Rng& rng) {
  for (Trial& trial : trials) {
    trial.meas_seed = rng.next_u64();
  }
}

}  // namespace rqsim
