// Explicit prefix-tree ("trie") representation of a reordered trial set.
//
// The reorder+prefix-cache schedule is a depth-first walk of a tree whose
// internal nodes are shared error-event prefixes and whose leaves are
// trials. schedule_trials (sched/plan.hpp) performs that walk implicitly by
// recursing over the sorted list; this module materializes the tree once so
// it can be executed *as a tree* — each ready subtree is an independent
// task, which is what lets the executor (sched/tree_exec.hpp) keep the
// paper's op count at any thread count: no shared prefix is executed twice.
//
// Node semantics mirror the sequential walker exactly:
//
//   kBranch — a group of trials sharing `event_depth` events. Its buffer
//             enters at `entry_frontier` (the parent's layer frontier at
//             fork time) with `entry_event` still to apply (non-root). The
//             node advances its buffer layer-by-layer past each child's
//             branch point, forking one checkpoint per child — the only
//             duplicated work of the schedule, counted as fork copies —
//             then advances to the end of the circuit and finishes its
//             tail trials (the error-free continuations of the prefix).
//   kReplay — a single trial executed on a private scratch state from the
//             parent frontier onward: the Algorithm-1 singleton case and
//             the MSV-budget fallback both lower to this node kind.
//
// `linearize_tree` re-emits the tree as a ScheduleVisitor stream. The
// linearization is defined to be *identical* to the sequential walker's
// stream — the tree-plan verifier (verify/plan_verifier.hpp) proves this
// op-for-op, which is how tree execution inherits every invariant already
// proved for the sequential schedule (reorder order, stack discipline,
// exact op-count telescoping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sched/plan.hpp"
#include "trial/trial.hpp"

namespace rqsim {

/// A trial finished by Pauli-frame collapse (ScheduleOptions::
/// frame_collapse): instead of forking a statevector for its remaining
/// error events, the trial finishes on its node's end-of-circuit buffer
/// carrying this frame, applied at sampling time as an outcome-bit
/// permutation (and a sign on Z-only observables). The masks are the
/// symplectic representation of trial/frame.hpp's PauliFrame, already
/// conjugated through every downstream Clifford gate.
struct FrameTrial {
  std::size_t trial = 0;
  std::uint64_t frame_x = 0;
  std::uint64_t frame_z = 0;

  /// Conjugation table lookups the propagation performed — the integer
  /// bookkeeping that replaced this trial's matvec ops (telemetry
  /// "sim.frame_ops"; never counted in planned_ops).
  opcount_t frame_ops = 0;
};

/// One node of the flat prefix tree: a fixed-size record that owns no
/// memory. Nodes are stored in depth-first order, so a node's subtree is
/// the contiguous range [index, subtree_end) of ExecTree::nodes and its
/// children are the sibling chain that starts at index + 1 and steps by
/// each child's subtree_end. Indices are 32-bit: TrialOrderer rejects sets
/// of 2^32 or more trials or events, and the builder checks the node count.
struct TreeNode {
  enum class Kind : std::uint8_t { kBranch, kReplay };

  /// Gate + error ops of the whole subtree rooted here (excluding the
  /// node's own entry-error injection, which the parent's stream pays).
  /// The executor's chunk batcher uses this as the work estimate when
  /// grouping sibling subtrees into one steal-able task.
  opcount_t subtree_ops = 0;

  /// Error event applied when this node's buffer starts executing (valid
  /// for every non-root kBranch node; kReplay nodes apply their events from
  /// `event_depth` onward instead).
  ErrorEvent entry_event;

  /// Number of leading error events shared by every trial of this node
  /// (kBranch: including entry_event; kReplay: index of the first event
  /// still to apply).
  std::uint32_t event_depth = 0;

  /// Layer frontier of the buffer handed to this node: the parent advanced
  /// its checkpoint error-free through layers [0, entry_frontier) before
  /// forking.
  layer_index_t entry_frontier = 0;

  /// kBranch: trials [begin, end) of the reordered list form this group.
  /// kReplay: the one trial replayed on the scratch state, [begin, begin + 1).
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  /// kBranch: trials [tail_begin, end) have exactly `event_depth` errors
  /// and finish on this node's own buffer after the final advance.
  /// kReplay: equal to `end` (no tail).
  std::uint32_t tail_begin = 0;

  /// One past the last node of this subtree (kReplay: index + 1).
  std::uint32_t subtree_end = 0;

  /// kBranch: ExecTree::frames[frames_begin, frames_end) are the trials of
  /// [begin, end) whose subtrees the frame-collapse pass eliminated. They
  /// share this node's event_depth-long prefix and finish on this node's
  /// own buffer after the final advance; their remaining events live only
  /// in the recorded frames. Empty unless the tree was built with
  /// ScheduleOptions::frame_collapse.
  std::uint32_t frames_begin = 0;
  std::uint32_t frames_end = 0;

  /// Buffers needed to execute this subtree sequentially, including the
  /// node's own (= the sequential walker's stack growth below this point).
  /// The executor's admission control reserves this many states before
  /// letting a subtree run concurrently, which is what makes the MSV
  /// budget a *global* bound rather than a per-chunk one.
  std::uint32_t peak_demand = 1;

  Kind kind = Kind::kBranch;

  /// Trials finish on this node's own buffer after its final advance.
  bool has_tail() const { return tail_begin != end || frames_begin != frames_end; }
};

static_assert(sizeof(TreeNode) <= 64, "TreeNode must stay a 64-byte record");
static_assert(std::is_trivially_copyable_v<TreeNode>,
              "TreeNode must own no memory");

struct ExecTree {
  /// Depth-first order; nodes[0] is the root (empty trial list produces an
  /// empty vector).
  std::vector<TreeNode> nodes;

  /// Every node's frame-collapsed trials, one contiguous range per node
  /// (TreeNode::frames_begin/frames_end).
  std::vector<FrameTrial> frames;

  std::size_t num_trials = 0;

  /// Gate + error-injection op count of the tree schedule; equal by
  /// construction to the sequential cached schedule's op count.
  opcount_t planned_ops = 0;

  /// Checkpoint copies the schedule performs (== nodes.size() - 1: every
  /// non-root node is forked exactly once).
  std::uint64_t planned_forks = 0;

  /// Sequential MSV of the schedule (root peak demand); the executor's
  /// global live-state bound when max_states is set.
  std::size_t peak_demand = 1;

  /// Trials finished by Pauli-frame collapse across the whole tree, and
  /// the conjugation-table lookups their propagation cost. When collapse
  /// is off (or nothing collapsed) both are 0 and the tree is op-for-op
  /// the sequential cached schedule; otherwise planned_ops is *smaller*
  /// than the sequential schedule's — the saving the PlanVerifier's
  /// frame-algebra pass proves exactly.
  std::uint64_t frame_collapsed_trials = 0;
  opcount_t planned_frame_ops = 0;

  bool has_frames() const { return frame_collapsed_trials != 0; }

  /// `node`'s frame-collapsed trials.
  std::span<const FrameTrial> frames_of(const TreeNode& node) const {
    return std::span<const FrameTrial>(frames).subspan(
        node.frames_begin, node.frames_end - node.frames_begin);
  }
};

/// Result of order_trials.
struct OrderedTrials {
  /// The input trials rearranged into reorder order; every trial index in
  /// `tree` addresses this set.
  TrialSet trials;

  /// order[p] = input index of the trial at position p.
  std::vector<std::uint32_t> order;

  ExecTree tree;
};

/// Algorithm 1 and the tree build as one recursion (sched/order.hpp): the
/// trials are bucket-sorted group by group while the tree is emitted.
/// Equal to reorder_trials followed by build_exec_tree: the order is
/// std::stable_sort(trial_order_less) index for index, and the tree is the
/// one build_exec_tree builds over the reordered set, node for node. The
/// MSV budget in `options` lowers over-budget branches to kReplay leaves
/// exactly like the sequential walker, so the tree schedule and the
/// sequential schedule stay op-identical for every budget.
OrderedTrials order_trials(const CircuitContext& ctx, TrialSet trials,
                           const ScheduleOptions& options = {});

/// The execution tree of `trials`, which must already be in reorder order
/// (a merged batch is): the same builder, with every sort skipped.
ExecTree build_exec_tree(const CircuitContext& ctx, const TrialSet& trials,
                         const ScheduleOptions& options = {});

/// std::vector<Trial> adapter. Keeps the reordered precondition, so the
/// nodes' trial indices address the caller's vector.
ExecTree build_exec_tree(const CircuitContext& ctx, const std::vector<Trial>& trials,
                         const ScheduleOptions& options = {});

/// Emit the tree's depth-first schedule to `visitor`. Produces exactly the
/// stream schedule_trials emits for the same (trials, options) — the
/// tree-plan verifier asserts this equality op-for-op.
void linearize_tree(const CircuitContext& ctx, const ExecTree& tree,
                    const TrialSet& trials, ScheduleVisitor& visitor);

}  // namespace rqsim
