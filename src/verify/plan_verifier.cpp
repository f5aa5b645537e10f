#include "verify/plan_verifier.hpp"

#include <algorithm>
#include <sstream>

#include "circuit/gate.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "trial/frame.hpp"

namespace rqsim {

// --------------------------------------------------------------------------
// PlanRecorder

void PlanRecorder::on_advance(std::size_t depth, layer_index_t from_layer,
                              layer_index_t to_layer) {
  PlanOp op;
  op.kind = PlanOpKind::kAdvance;
  op.depth = static_cast<std::uint32_t>(depth);
  op.from = from_layer;
  op.to = to_layer;
  plan_.push_back(op);
}

void PlanRecorder::on_fork(std::size_t depth) {
  PlanOp op;
  op.kind = PlanOpKind::kFork;
  op.depth = static_cast<std::uint32_t>(depth);
  plan_.push_back(op);
}

void PlanRecorder::on_error(std::size_t depth, const ErrorEvent& event) {
  PlanOp op;
  op.kind = PlanOpKind::kError;
  op.depth = static_cast<std::uint32_t>(depth);
  op.event = event;
  plan_.push_back(op);
}

void PlanRecorder::on_finish(std::size_t depth, trial_index_t trial_index,
                             const TrialView& trial) {
  (void)trial;
  PlanOp op;
  op.kind = PlanOpKind::kFinish;
  op.depth = static_cast<std::uint32_t>(depth);
  op.trial = trial_index;
  plan_.push_back(op);
}

void PlanRecorder::on_drop(std::size_t depth) {
  PlanOp op;
  op.kind = PlanOpKind::kDrop;
  op.depth = static_cast<std::uint32_t>(depth);
  plan_.push_back(op);
}

// --------------------------------------------------------------------------
// Independent op-count model

namespace {

/// Ops a lone trial costs when replayed from a checkpoint at `frontier`
/// with its first `event_depth` events already injected.
opcount_t replay_ops(const CircuitContext& ctx, const TrialView& trial,
                     std::size_t event_depth, layer_index_t frontier) {
  opcount_t ops = 0;
  layer_index_t f = frontier;
  for (std::size_t k = event_depth; k < trial.events.size(); ++k) {
    const layer_index_t target = trial.events[k].layer + 1;
    if (target > f) {
      ops += ctx.ops_in_layers(f, target);
      f = target;
    }
    ops += 1;
  }
  const auto total = static_cast<layer_index_t>(ctx.num_layers());
  if (total > f) {
    ops += ctx.ops_in_layers(f, total);
  }
  return ops;
}

/// Mirror of TreeBuilder::try_collapse_group's decision: the group
/// [begin, end) branching at `event_depth` collapses iff every trial's
/// remaining errors push to the end of the circuit as a pure Pauli frame
/// satisfying the purity rules. The *decision* intentionally reuses the
/// builder's propagation (the model must predict the builder's op count
/// exactly); the *soundness* of each recorded frame is established
/// separately by verify_tree_plan's numeric frame-algebra pass.
bool model_group_collapses(const CircuitContext& ctx, const TrialSet& trials,
                           const ScheduleOptions& options, std::size_t begin,
                           std::size_t end, std::size_t event_depth,
                           std::uint64_t measured_mask) {
  for (std::size_t t = begin; t != end; ++t) {
    const FramePropagation p =
        propagate_frame_to_end(ctx.circuit, ctx.layering, trials[t].events, event_depth);
    if (!p.ok || !frame_x_confined_to(p.frame, measured_mask) ||
        (options.frame_observables && p.frame.x != 0)) {
      return false;
    }
  }
  return true;
}

/// Counting model of the reorder+cache recursion over the group
/// [begin, end) of trials sharing their first `event_depth` events, with
/// the shared checkpoint advanced through `frontier` layers.
opcount_t model_group_ops(const CircuitContext& ctx, const TrialSet& trials,
                          const ScheduleOptions& options, std::size_t begin,
                          std::size_t end, std::size_t event_depth, std::size_t depth,
                          layer_index_t frontier, std::uint64_t measured_mask) {
  opcount_t ops = 0;
  std::size_t i = begin;
  bool collapsed_any = false;
  while (i != end && trials[i].events.size() > event_depth) {
    const ErrorEvent event = trials[i].events[event_depth];
    std::size_t j = i + 1;
    while (j != end && trials[j].events.size() > event_depth &&
           trials[j].events[event_depth] == event) {
      ++j;
    }
    if (options.frame_collapse &&
        model_group_collapses(ctx, trials, options, i, j, event_depth,
                              measured_mask)) {
      // No advance to the branch point, no injection, no subtree ops; the
      // group's trials finish on this node's final advance below.
      collapsed_any = true;
      i = j;
      continue;
    }
    const layer_index_t target = event.layer + 1;
    if (target > frontier) {
      ops += ctx.ops_in_layers(frontier, target);
      frontier = target;
    }
    if (j - i == 1) {
      ops += replay_ops(ctx, trials[i], event_depth, frontier);
    } else if (options.max_states == 0 || depth + 2 < options.max_states) {
      ops += 1;  // the shared error injection
      ops += model_group_ops(ctx, trials, options, i, j, event_depth + 1, depth + 1,
                             frontier, measured_mask);
    } else {
      for (std::size_t t = i; t != j; ++t) {
        ops += replay_ops(ctx, trials[t], event_depth, frontier);
      }
    }
    i = j;
  }
  if (i != end || collapsed_any) {
    const auto total = static_cast<layer_index_t>(ctx.num_layers());
    if (total > frontier) {
      ops += ctx.ops_in_layers(frontier, total);
    }
  }
  return ops;
}

std::uint64_t circuit_measured_mask(const Circuit& circuit) {
  std::uint64_t mask = 0;
  for (const qubit_t q : circuit.measured_qubits()) {
    mask |= std::uint64_t{1} << q;
  }
  return mask;
}

}  // namespace

opcount_t predict_cached_ops(const CircuitContext& ctx, const TrialSet& trials,
                             const ScheduleOptions& options) {
  if (trials.empty()) {
    return 0;
  }
  const std::uint64_t measured_mask =
      options.frame_collapse ? circuit_measured_mask(ctx.circuit) : 0;
  return model_group_ops(ctx, trials, options, 0, trials.size(), /*event_depth=*/0,
                         /*depth=*/0, /*frontier=*/0, measured_mask);
}

// --------------------------------------------------------------------------
// PlanVerifier

namespace {

const char* kind_name(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kAdvance: return "advance";
    case PlanOpKind::kFork: return "fork";
    case PlanOpKind::kError: return "error";
    case PlanOpKind::kFinish: return "finish";
    case PlanOpKind::kDrop: return "drop";
  }
  return "?";
}

/// First trial a stream corruption at plan op `k` would poison: the next
/// finish at or after `k` (trials already finished are untouched).
std::size_t next_finished_trial(const std::vector<PlanOp>& plan, std::size_t k) {
  for (std::size_t i = k; i < plan.size(); ++i) {
    if (plan[i].kind == PlanOpKind::kFinish) {
      return static_cast<std::size_t>(plan[i].trial);
    }
  }
  return kNoIndex;
}

// ---- Numeric frame algebra ----
//
// Re-derives every recorded Pauli frame by explicit matrix conjugation:
// a gate G rewrites the frame's restriction P to G·P·G†, which must equal
// some Pauli P' up to a unit phase or the gate *blocks* the frame. This
// shares nothing with the PauliConjugation lookup tables the tree builder
// used (circuit/gate.cpp), so a corrupted table — or a frame forced past a
// non-Clifford gate — cannot vouch for itself.

/// 2-bit frame code (x | z<<1) to its Pauli matrix.
Mat2 pauli_code_matrix(unsigned code) {
  switch (code & 3u) {
    case 0: return pauli_matrix(Pauli::I);
    case 1: return pauli_matrix(Pauli::X);
    case 2: return pauli_matrix(Pauli::Z);
    default: return pauli_matrix(Pauli::Y);
  }
}

/// c == phase · p for some unit-modulus phase, within tolerance? Pauli
/// matrix entries are 0 or unit modulus, so any entry with |p| > 0.5
/// determines the candidate phase.
template <typename Mat>
bool equals_pauli_up_to_phase(const Mat& c, const Mat& p) {
  cplx phase(0.0, 0.0);
  for (std::size_t k = 0; k < p.m.size(); ++k) {
    if (std::abs(p.m[k]) > 0.5) {
      phase = c.m[k] / p.m[k];
      break;
    }
  }
  if (std::abs(std::abs(phase) - 1.0) > 1e-9) {
    return false;
  }
  return frobenius_distance(c, p * phase) < 1e-9;
}

/// G·P·G† for a single-qubit gate: output code, or -1 if the result is not
/// a Pauli up to phase (the gate blocks the frame).
int conjugate1_numeric(const Gate& gate, unsigned in_code) {
  const Mat2 u = gate_matrix1(gate);
  const Mat2 c = u * pauli_code_matrix(in_code) * u.dagger();
  for (unsigned out = 0; out < 4; ++out) {
    if (equals_pauli_up_to_phase(c, pauli_code_matrix(out))) {
      return static_cast<int>(out);
    }
  }
  return -1;
}

/// Two-qubit version. `in_code` layout matches trial/frame.cpp: bits 0-1
/// are qubits[0]'s (x, z), bits 2-3 qubits[1]'s. gate_matrix2 indexes
/// qubits[0] as the high-order bit, so kron's first factor is qubits[0]'s
/// Pauli.
int conjugate2_numeric(const Gate& gate, unsigned in_code) {
  const Mat4 u = gate_matrix2(gate);
  const Mat4 p = kron(pauli_code_matrix(in_code & 3u),
                      pauli_code_matrix((in_code >> 2) & 3u));
  const Mat4 c = u * p * u.dagger();
  for (unsigned a = 0; a < 4; ++a) {
    for (unsigned b = 0; b < 4; ++b) {
      if (equals_pauli_up_to_phase(
              c, kron(pauli_code_matrix(a), pauli_code_matrix(b)))) {
        return static_cast<int>(a | (b << 2));
      }
    }
  }
  return -1;
}

struct NumericFrame {
  bool ok = true;
  std::string diagnostic;  // set when !ok
  PauliFrame frame;
  opcount_t frame_ops = 0;
};

/// Re-propagate trial.events[event_depth..] to the end of the circuit with
/// numeric conjugation. The walk order (gates of layer L, then the errors
/// hosted at layer L's boundary) matches the scheduler's event semantics;
/// the per-gate algebra is the independent part.
NumericFrame derive_frame_numeric(const CircuitContext& ctx, const TrialView& trial,
                                  std::size_t event_depth) {
  NumericFrame r;
  const std::size_t num_events = trial.events.size();
  if (event_depth >= num_events) {
    return r;
  }
  std::size_t ei = event_depth;
  const std::size_t num_layers = ctx.num_layers();
  for (std::size_t layer = trial.events[ei].layer; layer < num_layers; ++layer) {
    for (const gate_index_t g : ctx.layering.layers[layer]) {
      const Gate& gate = ctx.circuit.gates()[g];
      const int arity = gate.arity();
      std::uint64_t support = 0;
      for (int q = 0; q < arity; ++q) {
        support |= std::uint64_t{1} << gate.qubits[static_cast<std::size_t>(q)];
      }
      if ((r.frame.support() & support) == 0) {
        continue;  // disjoint tensor factors commute; not billed
      }
      ++r.frame_ops;
      if (arity == 1) {
        const qubit_t q = gate.qubits[0];
        const unsigned in = static_cast<unsigned>((r.frame.x >> q) & 1u) |
                            static_cast<unsigned>((r.frame.z >> q) & 1u) << 1;
        const int out = conjugate1_numeric(gate, in);
        if (out < 0) {
          r.ok = false;
          r.diagnostic = "gate '" + gate_name(gate.kind) + "' at layer " +
                         std::to_string(layer) +
                         " blocks the frame (G·P·G† is not a Pauli)";
          return r;
        }
        const auto u = static_cast<unsigned>(out);
        r.frame.x = (r.frame.x & ~(std::uint64_t{1} << q)) |
                    static_cast<std::uint64_t>(u & 1u) << q;
        r.frame.z = (r.frame.z & ~(std::uint64_t{1} << q)) |
                    static_cast<std::uint64_t>(u >> 1) << q;
      } else if (arity == 2) {
        const qubit_t a = gate.qubits[0];
        const qubit_t b = gate.qubits[1];
        const unsigned in = static_cast<unsigned>((r.frame.x >> a) & 1u) |
                            static_cast<unsigned>((r.frame.z >> a) & 1u) << 1 |
                            static_cast<unsigned>((r.frame.x >> b) & 1u) << 2 |
                            static_cast<unsigned>((r.frame.z >> b) & 1u) << 3;
        const int out = conjugate2_numeric(gate, in);
        if (out < 0) {
          r.ok = false;
          r.diagnostic = "gate '" + gate_name(gate.kind) + "' at layer " +
                         std::to_string(layer) +
                         " blocks the frame (G·P·G† is not a Pauli)";
          return r;
        }
        const auto u = static_cast<unsigned>(out);
        const std::uint64_t clear =
            ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b));
        r.frame.x = (r.frame.x & clear) |
                    static_cast<std::uint64_t>(u & 1u) << a |
                    static_cast<std::uint64_t>((u >> 2) & 1u) << b;
        r.frame.z = (r.frame.z & clear) |
                    static_cast<std::uint64_t>((u >> 1) & 1u) << a |
                    static_cast<std::uint64_t>((u >> 3) & 1u) << b;
      } else {
        r.ok = false;
        r.diagnostic = "gate '" + gate_name(gate.kind) + "' at layer " +
                       std::to_string(layer) +
                       " blocks the frame (frames do not cross 3-qubit gates)";
        return r;
      }
    }
    while (ei < num_events && trial.events[ei].layer == layer) {
      const PauliFrame ef = frame_from_event(ctx.circuit, trial.events[ei]);
      r.frame.x ^= ef.x;
      r.frame.z ^= ef.z;
      ++ei;
    }
  }
  if (ei != num_events) {
    r.ok = false;
    r.diagnostic = "event " + std::to_string(ei) +
                   " names a layer beyond the circuit's last layer";
  }
  return r;
}

/// Live checkpoint bookkeeping during the stream walk. `path_len` is the
/// number of error events on this checkpoint's ancestry (a prefix of the
/// shared `path` vector — forks copy by prefix, so one vector serves every
/// depth), `finishes` counts trials finished in this checkpoint's subtree.
/// `materialized` models the CoW executor's memory: a fork shares its
/// parent's buffer until the first write (advance or error) pays the copy.
struct DepthState {
  layer_index_t frontier = 0;
  std::size_t path_len = 0;
  std::uint64_t finishes = 0;
  bool materialized = false;
};

}  // namespace

PlanVerifier::PlanVerifier(const CircuitContext& ctx, const ScheduleOptions& options)
    : ctx_(ctx), options_(options) {
  RQSIM_CHECK(options.max_states == 0 || options.max_states >= 2,
              "PlanVerifier: max_states must be 0 (unlimited) or >= 2");
}

PlanProof PlanVerifier::verify(const TrialSet& trials,
                               const std::vector<PlanOp>& plan) const {
  return verify_impl(trials, plan, /*frame_prefix=*/nullptr);
}

PlanProof PlanVerifier::verify_impl(
    const TrialSet& trials, const std::vector<PlanOp>& plan,
    const std::vector<std::size_t>* frame_prefix) const {
  PlanProof proof;
  proof.num_trials = trials.size();
  proof.num_plan_ops = plan.size();
  proof.msv_budget = options_.max_states;

  const auto fail = [&proof](std::size_t op_index, std::size_t trial_index,
                             const std::string& message) -> const PlanProof& {
    proof.ok = false;
    proof.violating_op = op_index;
    proof.violating_trial = trial_index;
    proof.diagnostic = message;
    return proof;
  };

  const auto total_layers = static_cast<layer_index_t>(ctx_.num_layers());

  // ---- Invariant 1: trial well-formedness and lexicographic reorder
  // order, with "no-further-error" sorted after any further error.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const std::span<const ErrorEvent> events = trials[i].events;
    for (std::size_t k = 0; k < events.size(); ++k) {
      if (events[k].layer >= total_layers) {
        return fail(kNoIndex, i,
                    "trial " + std::to_string(i) + " event " + std::to_string(k) +
                        " names layer " + std::to_string(events[k].layer) +
                        " but the circuit has only " + std::to_string(total_layers) +
                        " layers");
      }
      if (k > 0 && events[k] < events[k - 1]) {
        return fail(kNoIndex, i,
                    "trial " + std::to_string(i) +
                        " has unsorted error events (event " + std::to_string(k) +
                        " precedes event " + std::to_string(k - 1) + ")");
      }
    }
    if (i > 0 && trial_order_less(trials[i], trials[i - 1])) {
      return fail(kNoIndex, i,
                  "trial " + std::to_string(i) +
                      " is out of reorder order: it sorts before trial " +
                      std::to_string(i - 1) +
                      " (lexicographic over error events, exhausted-last)");
    }
  }

  // ---- Invariants 2 & 3: checkpoint stack discipline and the MSV bound,
  // walked over the recorded stream with per-trial path reconstruction.
  // The MSV budget is checked against *materialized* checkpoints: a fork
  // is free (CoW refcount bump) until its first write pays the copy, which
  // is exactly when the executor's banker accounting charges a token.
  std::vector<DepthState> stack(1);
  stack.front().materialized = true;  // the root state is allocated up front
  proof.materializations = 1;
  std::size_t materialized_live = 1;
  std::vector<ErrorEvent> path;  // shared by all depths; see DepthState
  std::vector<bool> finished(trials.size(), false);
  std::size_t finished_count = 0;

  // First write to an unmaterialized checkpoint: charge the copy against
  // the budget and record the high-water witness.
  const auto materialize_top = [&](std::size_t k) -> bool {
    if (stack.back().materialized) {
      return true;
    }
    stack.back().materialized = true;
    ++proof.materializations;
    ++materialized_live;
    if (materialized_live > proof.max_materialized_states) {
      proof.max_materialized_states = materialized_live;
      proof.materialization_witness_op = k;
    }
    return options_.max_states == 0 || materialized_live <= options_.max_states;
  };

  for (std::size_t k = 0; k < plan.size(); ++k) {
    const PlanOp& op = plan[k];
    const std::size_t top = stack.size() - 1;
    if (op.depth != top &&
        !(op.kind == PlanOpKind::kFinish && op.depth == top)) {
      return fail(k, next_finished_trial(plan, k),
                  std::string(kind_name(op.kind)) + " at plan op " +
                      std::to_string(k) + " targets checkpoint depth " +
                      std::to_string(op.depth) + " but the live stack top is depth " +
                      std::to_string(top) +
                      (op.depth > top ? " (use after drop)" : " (not the top)"));
    }
    switch (op.kind) {
      case PlanOpKind::kAdvance: {
        DepthState& state = stack.back();
        if (op.from != state.frontier) {
          return fail(k, next_finished_trial(plan, k),
                      "advance at plan op " + std::to_string(k) + " starts at layer " +
                          std::to_string(op.from) + " but checkpoint depth " +
                          std::to_string(op.depth) + " is advanced through layer " +
                          std::to_string(state.frontier) +
                          " (layers would be skipped or reapplied)");
        }
        if (op.to <= op.from || op.to > total_layers) {
          return fail(k, next_finished_trial(plan, k),
                      "advance at plan op " + std::to_string(k) + " has bad range [" +
                          std::to_string(op.from) + ", " + std::to_string(op.to) +
                          ") for a circuit with " + std::to_string(total_layers) +
                          " layers");
        }
        if (!materialize_top(k)) {
          return fail(k, next_finished_trial(plan, k),
                      "advance at plan op " + std::to_string(k) +
                          " materializes checkpoint depth " + std::to_string(op.depth) +
                          ", raising the live materialized count to " +
                          std::to_string(materialized_live) +
                          ", exceeding the MSV budget of " +
                          std::to_string(options_.max_states));
        }
        proof.cached_ops += ctx_.ops_in_layers(op.from, op.to);
        state.frontier = op.to;
        break;
      }
      case PlanOpKind::kFork: {
        // Forks are free under CoW — no copy, no token — so the budget is
        // not checked here; it is charged at the child's first write.
        DepthState child;
        child.frontier = stack.back().frontier;
        child.path_len = stack.back().path_len;
        stack.push_back(child);
        ++proof.forks;
        if (stack.size() > proof.max_live_states) {
          proof.max_live_states = stack.size();
          proof.msv_witness_op = k;
        }
        break;
      }
      case PlanOpKind::kError: {
        DepthState& state = stack.back();
        if (op.event.layer >= total_layers) {
          return fail(k, next_finished_trial(plan, k),
                      "error at plan op " + std::to_string(k) + " names layer " +
                          std::to_string(op.event.layer) +
                          " beyond the circuit's last layer");
        }
        if (state.frontier != op.event.layer + 1) {
          return fail(k, next_finished_trial(plan, k),
                      "error at plan op " + std::to_string(k) + " belongs to layer " +
                          std::to_string(op.event.layer) +
                          " but checkpoint depth " + std::to_string(op.depth) +
                          " is advanced through layer " + std::to_string(state.frontier) +
                          " (errors must be injected at their layer boundary)");
        }
        if (!materialize_top(k)) {
          return fail(k, next_finished_trial(plan, k),
                      "error at plan op " + std::to_string(k) +
                          " materializes checkpoint depth " + std::to_string(op.depth) +
                          ", raising the live materialized count to " +
                          std::to_string(materialized_live) +
                          ", exceeding the MSV budget of " +
                          std::to_string(options_.max_states));
        }
        path.resize(state.path_len);
        path.push_back(op.event);
        ++state.path_len;
        proof.cached_ops += 1;
        break;
      }
      case PlanOpKind::kFinish: {
        const DepthState& state = stack.back();
        const auto t = static_cast<std::size_t>(op.trial);
        if (t >= trials.size()) {
          return fail(k, kNoIndex,
                      "finish at plan op " + std::to_string(k) + " names trial " +
                          std::to_string(t) + " but only " +
                          std::to_string(trials.size()) + " trials exist");
        }
        if (finished[t]) {
          return fail(k, t,
                      "trial " + std::to_string(t) + " is finished twice (plan op " +
                          std::to_string(k) + ")");
        }
        if (state.frontier != total_layers) {
          return fail(k, t,
                      "trial " + std::to_string(t) + " finishes at plan op " +
                          std::to_string(k) + " with its checkpoint advanced only " +
                          "through layer " + std::to_string(state.frontier) + " of " +
                          std::to_string(total_layers));
        }
        const std::span<const ErrorEvent> expected = trials[t].events;
        const std::size_t prefix =
            frame_prefix != nullptr ? (*frame_prefix)[t] : kNoIndex;
        if (prefix != kNoIndex) {
          // Frame-collapsed trial: only the node's shared prefix is
          // injected; the remaining events (there must be some — otherwise
          // it is a tail trial) are carried by the frame the numeric
          // frame-algebra pass already proved.
          bool match = state.path_len == prefix && expected.size() > prefix;
          for (std::size_t e = 0; match && e < prefix; ++e) {
            match = path[e] == expected[e];
          }
          if (!match) {
            return fail(k, t,
                        "frame-collapsed trial " + std::to_string(t) +
                            " finishes at plan op " + std::to_string(k) +
                            " on a checkpoint whose injected error path (" +
                            std::to_string(state.path_len) +
                            " events) is not the trial's " + std::to_string(prefix) +
                            "-event collapse prefix");
          }
          ++proof.frame_trials;
        } else {
          bool match = state.path_len == expected.size();
          for (std::size_t e = 0; match && e < expected.size(); ++e) {
            match = path[e] == expected[e];
          }
          if (!match) {
            return fail(k, t,
                        "trial " + std::to_string(t) + " finishes at plan op " +
                            std::to_string(k) +
                            " on a checkpoint whose injected error " + "path (" +
                            std::to_string(state.path_len) +
                            " events) diverges from the trial's defined events (" +
                            std::to_string(expected.size()) + ")");
          }
        }
        finished[t] = true;
        ++finished_count;
        ++stack.back().finishes;
        break;
      }
      case PlanOpKind::kDrop: {
        if (stack.size() <= 1) {
          return fail(k, next_finished_trial(plan, k),
                      "drop at plan op " + std::to_string(k) +
                          " would release the root checkpoint");
        }
        if (stack.back().finishes == 0) {
          return fail(k, next_finished_trial(plan, k),
                      "checkpoint depth " + std::to_string(op.depth) +
                          " is dropped at plan op " + std::to_string(k) +
                          " without finishing any trial (dead branch: its forks and " +
                          "advances are wasted computation)");
        }
        const std::uint64_t finishes = stack.back().finishes;
        if (stack.back().materialized) {
          --materialized_live;
        }
        stack.pop_back();
        stack.back().finishes += finishes;
        ++proof.drops;
        break;
      }
    }
  }

  if (stack.size() != 1) {
    return fail(plan.size(), kNoIndex,
                "plan leaks " + std::to_string(stack.size() - 1) +
                    " checkpoint(s): every forked checkpoint must be dropped");
  }
  if (finished_count != trials.size()) {
    const auto first_unfinished = static_cast<std::size_t>(
        std::find(finished.begin(), finished.end(), false) - finished.begin());
    return fail(plan.size(), first_unfinished,
                "trial " + std::to_string(first_unfinished) +
                    " is never finished by the plan (" +
                    std::to_string(finished_count) + " of " +
                    std::to_string(trials.size()) + " trials covered)");
  }

  // ---- Invariant 4: exact telescoping of the op counts. The plan's
  // actual cost must equal the model prediction, and never exceed the
  // baseline (full circuit + own errors, per trial, nothing shared). The
  // framed model applies only when a frame map was supplied — the
  // sequential walker never collapses, so plain verify()/verify_schedule()
  // always predict against the unframed recursion.
  ScheduleOptions model_options = options_;
  model_options.frame_collapse = frame_prefix != nullptr && options_.frame_collapse;
  proof.predicted_ops = predict_cached_ops(ctx_, trials, model_options);
  proof.baseline_ops = baseline_op_count(ctx_, trials);
  if (proof.cached_ops != proof.predicted_ops) {
    const bool over = proof.cached_ops > proof.predicted_ops;
    const opcount_t delta = over ? proof.cached_ops - proof.predicted_ops
                                 : proof.predicted_ops - proof.cached_ops;
    return fail(plan.size(), kNoIndex,
                "op-count telescoping violated: the plan executes " +
                    std::to_string(proof.cached_ops) + " ops but the model predicts " +
                    std::to_string(proof.predicted_ops) + " (" +
                    (over ? "+" : "-") + std::to_string(delta) + ")");
  }
  if (!trials.empty() && proof.cached_ops > proof.baseline_ops) {
    return fail(plan.size(), kNoIndex,
                "plan executes " + std::to_string(proof.cached_ops) +
                    " ops, more than the unshared baseline of " +
                    std::to_string(proof.baseline_ops));
  }
  if (model_options.frame_collapse) {
    // The certified saving: what the same trials would cost without frame
    // collapse, minus what the framed plan actually executes.
    ScheduleOptions unframed = options_;
    unframed.frame_collapse = false;
    const opcount_t unframed_ops = predict_cached_ops(ctx_, trials, unframed);
    proof.frame_saved_ops =
        unframed_ops > proof.cached_ops ? unframed_ops - proof.cached_ops : 0;
  }
  return proof;
}

PlanProof PlanVerifier::verify_schedule(const TrialSet& trials) const {
  if (!is_reordered(trials)) {
    // Let verify() produce the precise per-trial ordering diagnostic
    // (schedule_trials would refuse to walk an unordered list).
    return verify(trials, {});
  }
  PlanRecorder recorder;
  schedule_trials(ctx_, trials, recorder, options_);
  return verify(trials, recorder.plan());
}

PlanProof PlanVerifier::verify_tree_plan(const std::vector<Trial>& trials,
                                         const ExecTree& tree) const {
  return verify_tree_plan(TrialSet(trials), tree);
}

PlanProof PlanVerifier::verify_tree_plan(const TrialSet& trials,
                                         const ExecTree& tree) const {
  const auto fail = [](PlanProof proof, const std::string& message) {
    proof.ok = false;
    proof.diagnostic = message;
    proof.violating_op = kNoIndex;
    proof.violating_trial = kNoIndex;
    return proof;
  };

  const auto fail_trial = [&fail](std::size_t trial_index, const std::string& message) {
    PlanProof bad = fail({}, message);
    bad.violating_trial = trial_index;
    return bad;
  };

  if (tree.num_trials != trials.size()) {
    return fail({}, "tree was built for " + std::to_string(tree.num_trials) +
                        " trials but " + std::to_string(trials.size()) +
                        " were supplied");
  }

  // Structure: every range the passes below follow must lie inside what it
  // indexes, so a malformed tree is named here instead of read out of
  // bounds. `open` holds the subtree ends of node ni's ancestors, innermost
  // last. The root is a branch whose subtree spans the node array; a replay
  // leaf's subtree is the leaf alone.
  const auto fail_node = [&fail](std::size_t ni, const std::string& message) {
    return fail({}, "node " + std::to_string(ni) + message);
  };
  std::vector<std::size_t> open;
  for (std::size_t ni = 0; ni < tree.nodes.size(); ++ni) {
    const TreeNode& node = tree.nodes[ni];
    const bool replay = node.kind == TreeNode::Kind::kReplay;
    if (ni == 0 && replay) {
      return fail({}, "node 0 is a replay leaf, but the root must be a branch");
    }
    while (!open.empty() && open.back() == ni) {
      open.pop_back();
    }
    const std::size_t parent_end = open.empty() ? tree.nodes.size() : open.back();
    const std::size_t lo = ni == 0 ? parent_end : ni + 1;
    const std::size_t hi = replay ? ni + 1 : parent_end;
    if (node.subtree_end < lo || node.subtree_end > hi) {
      return fail_node(ni, "'s subtree_end " + std::to_string(node.subtree_end) +
                               " lies at or before the node or outside its parent's "
                               "range (expected " +
                               (lo == hi ? std::to_string(lo)
                                         : "[" + std::to_string(lo) + ", " +
                                               std::to_string(hi) + "]") +
                               ")");
    }
    open.push_back(node.subtree_end);
    if (node.frames_begin > node.frames_end || node.frames_end > tree.frames.size()) {
      return fail_node(ni, "'s frame range [" + std::to_string(node.frames_begin) + ", " +
                               std::to_string(node.frames_end) + ") runs past the tree's " +
                               std::to_string(tree.frames.size()) + " frame trials");
    }
    const bool bad_trials =
        node.end > trials.size() ||
        (replay ? node.end != node.begin + 1
                : node.begin > node.tail_begin || node.tail_begin > node.end);
    if (bad_trials) {
      const std::string range = "[" + std::to_string(node.begin) + ", " +
                                std::to_string(node.end) + ")";
      return fail_node(ni, (replay ? "'s replay range " + range + " is not one trial"
                                   : "'s trial range " + range + " with tail from " +
                                         std::to_string(node.tail_begin) +
                                         " does not lie") +
                               " inside the trial set of " +
                               std::to_string(trials.size()) + " trials");
    }
  }

  // Pass 0: frame algebra. Every recorded FrameTrial is re-proved by
  // numeric matrix conjugation (nothing shared with the builder's lookup
  // tables) and must satisfy the purity rules. This runs before the stream
  // passes so a wrongly propagated frame is named precisely.
  std::vector<std::size_t> frame_prefix(trials.size(), kNoIndex);
  std::uint64_t frame_count = 0;
  std::uint64_t frame_ops_total = 0;
  const std::uint64_t measured_mask = circuit_measured_mask(ctx_.circuit);
  for (std::size_t ni = 0; ni < tree.nodes.size(); ++ni) {
    const TreeNode& node = tree.nodes[ni];
    for (const FrameTrial& ft : tree.frames_of(node)) {
      if (!options_.frame_collapse) {
        return fail_trial(ft.trial,
                          "tree records frame-collapsed trials but the schedule "
                          "options do not enable frame_collapse");
      }
      if (ft.trial >= trials.size()) {
        return fail({}, "node " + std::to_string(ni) + " records a frame for trial " +
                            std::to_string(ft.trial) + " but only " +
                            std::to_string(trials.size()) + " trials exist");
      }
      if (frame_prefix[ft.trial] != kNoIndex) {
        return fail_trial(ft.trial, "trial " + std::to_string(ft.trial) +
                                        " is frame-collapsed twice");
      }
      if (ft.trial < node.begin || ft.trial >= node.end) {
        return fail_trial(ft.trial,
                          "node " + std::to_string(ni) + " records a frame for trial " +
                              std::to_string(ft.trial) +
                              " outside its own group [" + std::to_string(node.begin) +
                              ", " + std::to_string(node.end) + ")");
      }
      const TrialView trial = trials[ft.trial];
      if (trial.events.size() <= node.event_depth) {
        return fail_trial(ft.trial,
                          "trial " + std::to_string(ft.trial) +
                              " has no error events past the node's " +
                              std::to_string(node.event_depth) +
                              "-event prefix — it is a tail trial, not a frame");
      }
      const NumericFrame nf = derive_frame_numeric(ctx_, trial, node.event_depth);
      if (!nf.ok) {
        return fail_trial(ft.trial, "frame algebra violation for trial " +
                                        std::to_string(ft.trial) + ": " +
                                        nf.diagnostic);
      }
      if (nf.frame.x != ft.frame_x || nf.frame.z != ft.frame_z) {
        return fail_trial(
            ft.trial,
            "trial " + std::to_string(ft.trial) + "'s recorded frame (x=" +
                std::to_string(ft.frame_x) + ", z=" + std::to_string(ft.frame_z) +
                ") does not match the numerically derived frame (x=" +
                std::to_string(nf.frame.x) + ", z=" + std::to_string(nf.frame.z) +
                ")");
      }
      if (nf.frame_ops != ft.frame_ops) {
        return fail_trial(ft.trial,
                          "trial " + std::to_string(ft.trial) + " records " +
                              std::to_string(ft.frame_ops) +
                              " frame ops but the numeric propagation performs " +
                              std::to_string(nf.frame_ops));
      }
      if (!frame_x_confined_to(nf.frame, measured_mask)) {
        return fail_trial(ft.trial,
                          "trial " + std::to_string(ft.trial) +
                              "'s frame has an X component on an unmeasured qubit "
                              "(collapse would perturb the marginalization bitwise)");
      }
      if (options_.frame_observables && nf.frame.x != 0) {
        return fail_trial(ft.trial,
                          "trial " + std::to_string(ft.trial) +
                              "'s frame has an X component but observables are "
                              "evaluated (Z-only frames required)");
      }
      frame_prefix[ft.trial] = node.event_depth;
      ++frame_count;
      frame_ops_total += ft.frame_ops;
    }
  }
  if (frame_count != tree.frame_collapsed_trials) {
    return fail({}, "tree.frame_collapsed_trials " +
                        std::to_string(tree.frame_collapsed_trials) + " != " +
                        std::to_string(frame_count) + " recorded frame trials");
  }
  if (frame_ops_total != tree.planned_frame_ops) {
    return fail({}, "tree.planned_frame_ops " + std::to_string(tree.planned_frame_ops) +
                        " != " + std::to_string(frame_ops_total) +
                        " proven frame ops");
  }
  const bool framed = frame_count != 0;

  // Pass 1: the linearized tree must satisfy every sequential invariant on
  // its own merits (framed trials carry a prefix-only finish obligation —
  // their remaining events were proved above).
  PlanRecorder tree_recorder;
  linearize_tree(ctx_, tree, trials, tree_recorder);
  PlanProof proof = verify_impl(trials, tree_recorder.plan(),
                                framed ? &frame_prefix : nullptr);
  if (!proof.ok) {
    return proof;
  }
  proof.frame_ops = frame_ops_total;

  // Pass 2: op-for-op equality with the sequential walker's stream. This
  // is stronger than passing the invariants independently — it pins the
  // tree to the *same* schedule, so op counts, fork counts and MSV all
  // telescope to the sequential values exactly. A framed tree is
  // deliberately *cheaper* than the sequential stream (collapsed subtrees
  // emit no ops at all), so the comparison is skipped; its op count is
  // instead pinned by the framed model in pass 1 and the saving recorded
  // in frame_saved_ops.
  if (!trials.empty() && !framed) {
    PlanRecorder seq_recorder;
    schedule_trials(ctx_, trials, seq_recorder, options_);
    const std::vector<PlanOp>& tree_plan = tree_recorder.plan();
    const std::vector<PlanOp>& seq_plan = seq_recorder.plan();
    if (tree_plan.size() != seq_plan.size()) {
      return fail(proof,
                  "tree plan has " + std::to_string(tree_plan.size()) +
                      " ops but the sequential scheduler emits " +
                      std::to_string(seq_plan.size()));
    }
    for (std::size_t k = 0; k < tree_plan.size(); ++k) {
      if (tree_plan[k] != seq_plan[k]) {
        PlanProof bad = fail(proof,
                             "tree plan diverges from the sequential stream at op " +
                                 std::to_string(k) + " (tree: " +
                                 kind_name(tree_plan[k].kind) + " at depth " +
                                 std::to_string(tree_plan[k].depth) +
                                 ", sequential: " + kind_name(seq_plan[k].kind) +
                                 " at depth " + std::to_string(seq_plan[k].depth) + ")");
        bad.violating_op = k;
        bad.violating_trial = next_finished_trial(tree_plan, k);
        return bad;
      }
    }
  }

  // Pass 3: the tree's own planned counters — what the executor budgets
  // and reports — must match the proof artifacts.
  if (tree.planned_ops != proof.cached_ops) {
    return fail(proof, "tree.planned_ops " + std::to_string(tree.planned_ops) +
                           " != proven cached op count " +
                           std::to_string(proof.cached_ops));
  }
  if (!trials.empty() && tree.planned_forks != proof.forks) {
    return fail(proof, "tree.planned_forks " + std::to_string(tree.planned_forks) +
                           " != proven fork count " + std::to_string(proof.forks));
  }
  if (!trials.empty() && tree.peak_demand != proof.max_live_states) {
    return fail(proof, "tree.peak_demand " + std::to_string(tree.peak_demand) +
                           " != proven sequential MSV " +
                           std::to_string(proof.max_live_states));
  }
  if (tree.frame_collapsed_trials != proof.frame_trials) {
    return fail(proof, "tree.frame_collapsed_trials " +
                           std::to_string(tree.frame_collapsed_trials) +
                           " != " + std::to_string(proof.frame_trials) +
                           " frame finishes proven in the stream");
  }
  return proof;
}

void verify_schedule_or_throw(const CircuitContext& ctx,
                              const TrialSet& trials,
                              const ScheduleOptions& options, const char* context) {
  const PlanVerifier verifier(ctx, options);
  const PlanProof proof = verifier.verify_schedule(trials);
  if (!proof.ok) {
    throw Error(std::string(context) + ": schedule verification failed — " +
                proof.diagnostic);
  }
}

void verify_tree_plan_or_throw(const CircuitContext& ctx,
                               const TrialSet& trials,
                               const ExecTree& tree, const ScheduleOptions& options,
                               const char* context) {
  const PlanVerifier verifier(ctx, options);
  const PlanProof proof = verifier.verify_tree_plan(trials, tree);
  if (!proof.ok) {
    throw Error(std::string(context) + ": tree-plan verification failed — " +
                proof.diagnostic);
  }
}

std::string format_proof(const PlanProof& proof) {
  std::ostringstream out;
  if (proof.ok) {
    out << "plan proof: OK\n";
  } else {
    out << "plan proof: VIOLATION — " << proof.diagnostic << "\n";
    out << "  violating trial   : ";
    if (proof.violating_trial == kNoIndex) {
      out << "(none / schedule-wide)\n";
    } else {
      out << proof.violating_trial << "\n";
    }
    out << "  violating plan op : ";
    if (proof.violating_op == kNoIndex) {
      out << "(trial list, before the stream)\n";
    } else {
      out << proof.violating_op << "\n";
    }
  }
  out << "  trials            : " << proof.num_trials << "\n";
  out << "  plan ops          : " << proof.num_plan_ops << "\n";
  out << "  cached ops        : " << proof.cached_ops << "\n";
  out << "  predicted ops     : " << proof.predicted_ops << "\n";
  out << "  baseline ops      : " << proof.baseline_ops << "\n";
  if (proof.baseline_ops > 0 && proof.ok) {
    out << "  normalized compute: "
        << format_double(static_cast<double>(proof.cached_ops) /
                             static_cast<double>(proof.baseline_ops),
                         4)
        << "\n";
  }
  out << "  max live states   : " << proof.max_live_states;
  if (proof.msv_witness_op != kNoIndex) {
    out << " (witness at plan op " << proof.msv_witness_op << ")";
  }
  out << "\n";
  out << "  max materialized  : " << proof.max_materialized_states;
  if (proof.materialization_witness_op != kNoIndex) {
    out << " (witness at plan op " << proof.materialization_witness_op << ")";
  }
  out << "\n";
  out << "  msv budget        : ";
  if (proof.msv_budget == 0) {
    out << "unlimited\n";
  } else {
    out << proof.msv_budget << " (checked against materialized states)\n";
  }
  out << "  forks / drops     : " << proof.forks << " / " << proof.drops << "\n";
  out << "  materializations  : " << proof.materializations << "\n";
  if (proof.frame_trials != 0) {
    out << "  frame trials      : " << proof.frame_trials << "\n";
    out << "  frame ops         : " << proof.frame_ops << "\n";
    out << "  frame saved ops   : " << proof.frame_saved_ops << "\n";
  }
  return out.str();
}

}  // namespace rqsim
