#include "sim/measure.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace rqsim {

std::vector<double> measurement_probabilities(const StateVector& state,
                                              const std::vector<qubit_t>& measured_qubits) {
  RQSIM_CHECK(!measured_qubits.empty(), "measurement_probabilities: no qubits");
  RQSIM_CHECK(measured_qubits.size() <= 30, "measurement_probabilities: too many qubits");
  for (qubit_t q : measured_qubits) {
    RQSIM_CHECK(q < state.num_qubits(), "measurement_probabilities: qubit out of range");
  }
  std::vector<double> probs(pow2(static_cast<unsigned>(measured_qubits.size())), 0.0);
  const std::uint64_t dim = state.dim();
  // Fast paths for ascending qubit lists. Each visits amplitudes in the
  // same order and adds the same terms as the general loop, so the sums
  // are bitwise identical.
  bool ascending = true;
  std::uint64_t mask = 0;
  for (std::size_t k = 0; k < measured_qubits.size(); ++k) {
    ascending = ascending && (k == 0 || measured_qubits[k] > measured_qubits[k - 1]);
    mask |= std::uint64_t{1} << measured_qubits[k];
  }
  if (ascending && mask == dim - 1) {
    // measure_all: the key is the amplitude index (0.0 + p == p).
    for (std::uint64_t i = 0; i < dim; ++i) {
      probs[i] = std::norm(state[i]);
    }
    return probs;
  }
  if (ascending) {
    for (std::uint64_t i = 0; i < dim; ++i) {
      const double p = std::norm(state[i]);
      if (p == 0.0) {
        continue;
      }
      probs[extract_bits(i, mask)] += p;
    }
    return probs;
  }
  for (std::uint64_t i = 0; i < dim; ++i) {
    const double p = std::norm(state[i]);
    if (p == 0.0) {
      continue;
    }
    std::uint64_t key = 0;
    for (std::size_t k = 0; k < measured_qubits.size(); ++k) {
      key |= static_cast<std::uint64_t>(get_bit(i, measured_qubits[k])) << k;
    }
    probs[key] += p;
  }
  return probs;
}

std::uint64_t sample_outcome(const std::vector<double>& probs, Rng& rng) {
  RQSIM_CHECK(!probs.empty(), "sample_outcome: empty distribution");
  double r = rng.uniform();
  for (std::size_t i = 0; i + 1 < probs.size(); ++i) {
    if (r < probs[i]) {
      return i;
    }
    r -= probs[i];
  }
  return probs.size() - 1;
}

std::uint64_t sample_outcome_permuted(const std::vector<double>& probs,
                                      std::uint64_t flip, Rng& rng) {
  RQSIM_CHECK(!probs.empty(), "sample_outcome_permuted: empty distribution");
  RQSIM_CHECK(flip < probs.size(), "sample_outcome_permuted: flip out of range");
  double r = rng.uniform();
  for (std::size_t i = 0; i + 1 < probs.size(); ++i) {
    const double p = probs[i ^ flip];
    if (r < p) {
      return i;
    }
    r -= p;
  }
  return probs.size() - 1;
}

double total_variation_distance(const OutcomeHistogram& a, const OutcomeHistogram& b) {
  std::uint64_t total_a = 0;
  std::uint64_t total_b = 0;
  for (const auto& [key, count] : a) {
    (void)key;
    total_a += count;
  }
  for (const auto& [key, count] : b) {
    (void)key;
    total_b += count;
  }
  RQSIM_CHECK(total_a > 0 && total_b > 0, "total_variation_distance: empty histogram");
  double acc = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      acc += static_cast<double>(ia->second) / static_cast<double>(total_a);
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      acc += static_cast<double>(ib->second) / static_cast<double>(total_b);
      ++ib;
    } else {
      acc += std::abs(static_cast<double>(ia->second) / static_cast<double>(total_a) -
                      static_cast<double>(ib->second) / static_cast<double>(total_b));
      ++ia;
      ++ib;
    }
  }
  return acc / 2.0;
}

}  // namespace rqsim
