// Device coupling map: which physical qubit pairs support a CNOT.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rqsim {

class CouplingMap {
 public:
  CouplingMap() = default;

  /// Build from an undirected edge list over `num_qubits` physical qubits.
  CouplingMap(unsigned num_qubits, std::vector<std::pair<qubit_t, qubit_t>> edges);

  /// Fully connected device (no routing ever needed).
  static CouplingMap all_to_all(unsigned num_qubits);

  /// Chain 0-1-2-…-(n-1).
  static CouplingMap linear(unsigned num_qubits);

  /// IBM Yorktown (ibmqx2) bow-tie: 0-1, 0-2, 1-2, 2-3, 2-4, 3-4.
  static CouplingMap yorktown();

  /// Yorktown with the historical *directed* CX constraints
  /// (control -> target): 1->0, 2->0, 2->1, 3->2, 3->4, 4->2.
  static CouplingMap yorktown_directed();

  bool is_directed() const { return directed_; }

  /// True if a CX with this (control, target) orientation is native.
  /// On undirected maps this equals connected().
  bool cx_allowed(qubit_t control, qubit_t target) const;

  unsigned num_qubits() const { return num_qubits_; }
  const std::vector<std::pair<qubit_t, qubit_t>>& edges() const { return edges_; }

  bool connected(qubit_t a, qubit_t b) const;

  /// Index of the undirected edge {a, b}, or -1 if not connected.
  int edge_index(qubit_t a, qubit_t b) const;

  /// Shortest path between two physical qubits (BFS); includes endpoints.
  std::vector<qubit_t> shortest_path(qubit_t from, qubit_t to) const;

  /// True if every qubit can reach every other.
  bool is_connected_graph() const;

 private:
  unsigned num_qubits_ = 0;
  bool all_to_all_ = false;
  bool directed_ = false;
  std::vector<std::pair<qubit_t, qubit_t>> directed_edges_;
  std::vector<std::pair<qubit_t, qubit_t>> edges_;
  std::vector<std::vector<qubit_t>> adjacency_;
};

}  // namespace rqsim
