#include "sched/tree.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sched/order.hpp"
#include "trial/frame.hpp"

namespace rqsim {

namespace {

// Mirrors ScheduleWalker (sched/plan.cpp) shape-for-shape: the same group
// loop, the same advance-before-fork frontier updates, the same singleton
// and MSV-budget lowering to replay leaves. Any divergence between the two
// recursions is caught by PlanVerifier::verify_tree_plan, which compares
// the linearized tree against the walker's stream op for op.
//
// The builder is also Algorithm 1's recursion: unless the input is already
// reordered, each branch first bucket-sorts its group by the next event
// (TrialOrderer::sort_level), so sorting and tree emission are one pass.
// Groups whose subtree is not built node by node (frame-collapsed groups,
// and groups lowered to replays by the budget) are sorted to the end in
// one sort_from call, so their trial indices are final when recorded.
//
// Nodes are appended in depth-first order, so a node's subtree_end is the
// node count when its recursion returns. No node allocates: a node's
// frame-collapsed groups gather on one reusable stack (`frame_stack_`)
// while its children build above them, and move to ExecTree::frames as one
// contiguous range when the node completes.
class TreeBuilder {
 public:
  TreeBuilder(const CircuitContext& ctx, TrialOrderer& orderer,
              const ScheduleOptions& options)
      : ctx_(ctx), orderer_(orderer), options_(options) {
    for (const qubit_t q : ctx.circuit.measured_qubits()) {
      measured_mask_ |= std::uint64_t{1} << q;
    }
  }

  /// `sorted`: the orderer's current order is already the reorder order.
  ExecTree build(bool sorted) {
    ExecTree tree;
    const std::size_t n = orderer_.size();
    tree.num_trials = n;
    if (n == 0) {
      return tree;
    }
    tree_ = &tree;
    // One node per trial plus the root covers every tree whose trials do
    // not share two or more leading events, which is nearly all of them;
    // reserving it avoids reallocating the node array while it grows.
    tree.nodes.reserve(n + 1);
    tree.peak_demand = build_branch(nullptr, 0, n, /*event_depth=*/0, /*depth=*/0,
                                    /*entry_frontier=*/0, sorted);
    tree.planned_forks = tree.nodes.size() - 1;
    return tree;
  }

 private:
  /// Ops a replay leaf executes: advance/error alternation over the trial's
  /// remaining events, then the final advance to the end of the circuit.
  opcount_t replay_ops(std::span<const ErrorEvent> events, std::size_t event_depth,
                       layer_index_t frontier) const {
    opcount_t ops = 0;
    layer_index_t f = frontier;
    for (std::size_t k = event_depth; k < events.size(); ++k) {
      const layer_index_t target = events[k].layer + 1;
      if (target > f) {
        ops += ctx_.ops_in_layers(f, target);
        f = target;
      }
      ops += 1;
    }
    const auto total = static_cast<layer_index_t>(ctx_.num_layers());
    if (total > f) {
      ops += ctx_.ops_in_layers(f, total);
    }
    return ops;
  }

  /// Append a node and return its index, which fits the 32-bit index
  /// fields with room for subtree_end.
  std::uint32_t push_node(const TreeNode& node) {
    const std::size_t idx = tree_->nodes.size();
    RQSIM_CHECK(idx < std::numeric_limits<std::uint32_t>::max(),
                "build_exec_tree: the prefix tree exceeds 2^32 - 1 nodes");
    tree_->nodes.push_back(node);
    return static_cast<std::uint32_t>(idx);
  }

  /// Append the replay leaf of trial t; returns its peak demand.
  std::uint32_t make_replay(std::size_t t, std::size_t event_depth,
                            layer_index_t frontier) {
    TreeNode node;
    node.kind = TreeNode::Kind::kReplay;
    node.event_depth = static_cast<std::uint32_t>(event_depth);
    node.entry_frontier = frontier;
    node.begin = static_cast<std::uint32_t>(t);
    node.end = node.begin + 1;
    node.tail_begin = node.end;
    node.peak_demand = 1;
    node.subtree_ops = replay_ops(orderer_.events(t), event_depth, frontier);
    tree_->planned_ops += node.subtree_ops;
    const std::uint32_t idx = push_node(node);
    tree_->nodes[idx].subtree_end = idx + 1;
    return node.peak_demand;
  }

  /// All-or-nothing frame collapse of the group [begin, end) branching at
  /// `event_depth`: succeeds iff *every* trial's remaining errors propagate
  /// to the end of the circuit as a pure Pauli frame (Clifford-only
  /// downstream conjugation, X part confined to measured qubits, Z-only if
  /// observables will be evaluated). On success the group's FrameTrials are
  /// pushed on frame_stack_ and the caller skips building the subtree; on
  /// failure frame_stack_ is left untouched and the group forks as usual.
  bool try_collapse_group(std::size_t begin, std::size_t end,
                          std::size_t event_depth) {
    std::vector<FrameTrial>& frames = frame_stack_;
    const std::size_t before = frames.size();
    for (std::size_t t = begin; t != end; ++t) {
      const FramePropagation p = propagate_frame_to_end(
          ctx_.circuit, ctx_.layering, orderer_.events(t), event_depth);
      if (!p.ok || !frame_x_confined_to(p.frame, measured_mask_) ||
          (options_.frame_observables && p.frame.x != 0)) {
        frames.resize(before);
        return false;
      }
      FrameTrial ft;
      ft.trial = t;
      ft.frame_x = p.frame.x;
      ft.frame_z = p.frame.z;
      ft.frame_ops = p.frame_ops;
      frames.push_back(ft);
    }
    return true;
  }

  /// Build the kBranch subtree for trials [begin, end) sharing
  /// `event_depth` events (entry_event is the shared event just injected,
  /// null for the root). Returns the node's peak demand. Matches
  /// ScheduleWalker::walk. `sorted`: the group is already in reorder order.
  std::uint32_t build_branch(const ErrorEvent* entry_event, std::size_t begin,
                             std::size_t end, std::size_t event_depth,
                             std::size_t depth, layer_index_t entry_frontier,
                             bool sorted) {
    // Algorithm 1 at this depth: group the trials by their next event.
    if (sorted) {
      orderer_.load_keys(begin, end, event_depth);
    } else {
      orderer_.sort_level(begin, end, event_depth);
    }
    const opcount_t ops_before = tree_->planned_ops;
    std::uint32_t idx = 0;
    {
      TreeNode node;
      node.kind = TreeNode::Kind::kBranch;
      if (entry_event != nullptr) {
        node.entry_event = *entry_event;
      }
      node.event_depth = static_cast<std::uint32_t>(event_depth);
      node.entry_frontier = entry_frontier;
      node.begin = static_cast<std::uint32_t>(begin);
      node.end = static_cast<std::uint32_t>(end);
      idx = push_node(node);
    }
    // NOTE: tree_->nodes may reallocate during recursion — never hold a
    // reference to nodes[idx] across a child build; write back at the end.
    const std::size_t frames_base = frame_stack_.size();
    std::uint32_t peak = 1;
    layer_index_t frontier = entry_frontier;
    std::size_t i = begin;
    while (i != end && orderer_.key(i) != orderer_.exhausted()) {
      const ErrorEvent event = orderer_.events(i)[event_depth];
      std::size_t j = i + 1;
      while (j != end && orderer_.key(j) == orderer_.key(i)) {
        ++j;
      }
      bool group_sorted = sorted;
      const auto sort_group = [&] {
        if (!group_sorted) {
          orderer_.sort_from(i, j, event_depth + 1);
          group_sorted = true;
        }
      };
      if (options_.frame_collapse) {
        sort_group();
      }
      if (options_.frame_collapse && try_collapse_group(i, j, event_depth)) {
        // The whole subtree is frame bookkeeping: no advance to the branch
        // point, no fork, no child ops. The trials finish on this node's
        // buffer after the final advance below. Skipping the intermediate
        // advance changes nothing downstream — ops_in_layers is a prefix
        // sum, so a later child (or the final advance) pays the same
        // layers exactly once.
        i = j;
        continue;
      }
      const layer_index_t target = event.layer + 1;
      if (target > frontier) {
        tree_->planned_ops += ctx_.ops_in_layers(frontier, target);
        frontier = target;
      }
      if (j - i == 1) {
        peak = std::max(peak, 1 + make_replay(i, event_depth, frontier));
      } else if (options_.max_states == 0 || depth + 2 < options_.max_states) {
        tree_->planned_ops += 1;  // the child's shared entry-error injection
        peak = std::max(peak, 1 + build_branch(&event, i, j, event_depth + 1, depth + 1,
                                               frontier, group_sorted));
      } else {
        sort_group();
        for (std::size_t t = i; t != j; ++t) {
          peak = std::max(peak, 1 + make_replay(t, event_depth, frontier));
        }
      }
      i = j;
    }
    if (i != end || frame_stack_.size() != frames_base) {
      // Tail trials and frame-collapsed trials both finish on this node's
      // buffer advanced to the end of the circuit.
      const auto total = static_cast<layer_index_t>(ctx_.num_layers());
      if (total > frontier) {
        tree_->planned_ops += ctx_.ops_in_layers(frontier, total);
      }
    }
    // This node's frame-collapsed groups sit on top of the stack, above
    // whatever its ancestors gathered; its children have already moved
    // theirs out.
    const std::size_t frames_begin = tree_->frames.size();
    for (std::size_t f = frames_base; f != frame_stack_.size(); ++f) {
      tree_->frames.push_back(frame_stack_[f]);
      tree_->planned_frame_ops += frame_stack_[f].frame_ops;
    }
    tree_->frame_collapsed_trials += frame_stack_.size() - frames_base;
    frame_stack_.resize(frames_base);
    TreeNode& node = tree_->nodes[idx];
    node.tail_begin = static_cast<std::uint32_t>(i);
    node.subtree_end = static_cast<std::uint32_t>(tree_->nodes.size());
    node.frames_begin = static_cast<std::uint32_t>(frames_begin);
    node.frames_end = static_cast<std::uint32_t>(tree_->frames.size());
    node.peak_demand = peak;
    node.subtree_ops = tree_->planned_ops - ops_before;
    return peak;
  }

  const CircuitContext& ctx_;
  TrialOrderer& orderer_;
  const ScheduleOptions& options_;
  ExecTree* tree_ = nullptr;
  std::uint64_t measured_mask_ = 0;
  /// Frame-collapsed trials of the nodes under construction, innermost on
  /// top (see the class comment).
  std::vector<FrameTrial> frame_stack_;
};

// Re-emit the depth-first schedule of a subtree. The emission order is the
// definition of equivalence with ScheduleWalker: parent advances before
// every fork, forks are emitted at the parent depth, the child's entry
// error / replay suffix at depth + 1, the drop after the child completes,
// and tail finishes after the final advance.
class TreeEmitter {
 public:
  TreeEmitter(const CircuitContext& ctx, const ExecTree& tree,
              const TrialSet& trials, ScheduleVisitor& visitor)
      : ctx_(ctx), tree_(tree), trials_(trials), visitor_(visitor) {}

  void run() {
    if (tree_.nodes.empty()) {
      return;
    }
    emit_branch(0, /*depth=*/0);
  }

 private:
  void emit_branch(std::size_t idx, std::size_t depth) {
    const TreeNode& node = tree_.nodes[idx];
    layer_index_t frontier = node.entry_frontier;
    if (idx != 0) {
      visitor_.on_error(depth, node.entry_event);
    }
    for (std::size_t ci = idx + 1; ci < node.subtree_end;
         ci = tree_.nodes[ci].subtree_end) {
      const TreeNode& child = tree_.nodes[ci];
      if (child.entry_frontier > frontier) {
        visitor_.on_advance(depth, frontier, child.entry_frontier);
        frontier = child.entry_frontier;
      }
      visitor_.on_fork(depth);
      if (child.kind == TreeNode::Kind::kReplay) {
        emit_replay(ci, depth + 1);
      } else {
        emit_branch(ci, depth + 1);
      }
      visitor_.on_drop(depth + 1);
    }
    if (node.has_tail()) {
      const auto total = static_cast<layer_index_t>(ctx_.num_layers());
      if (total > frontier) {
        visitor_.on_advance(depth, frontier, total);
        frontier = total;
      }
      for (std::size_t t = node.tail_begin; t != node.end; ++t) {
        visitor_.on_finish(depth, static_cast<trial_index_t>(t), trials_[t]);
      }
      // Frame-collapsed trials finish on the same buffer; their remaining
      // events are virtual (carried by the recorded frame), so the stream
      // shows a finish with only the node's event_depth-long prefix applied
      // — the verifier's frame-algebra pass proves the rest.
      for (const FrameTrial& ft : tree_.frames_of(node)) {
        visitor_.on_finish(depth, static_cast<trial_index_t>(ft.trial),
                           trials_[ft.trial]);
      }
    }
  }

  void emit_replay(std::size_t idx, std::size_t depth) {
    const TreeNode& node = tree_.nodes[idx];
    const TrialView trial = trials_[node.begin];
    layer_index_t f = node.entry_frontier;
    for (std::size_t k = node.event_depth; k < trial.events.size(); ++k) {
      const ErrorEvent& event = trial.events[k];
      const layer_index_t target = event.layer + 1;
      if (target > f) {
        visitor_.on_advance(depth, f, target);
        f = target;
      }
      visitor_.on_error(depth, event);
    }
    const auto total = static_cast<layer_index_t>(ctx_.num_layers());
    if (total > f) {
      visitor_.on_advance(depth, f, total);
    }
    visitor_.on_finish(depth, node.begin, trial);
  }

  const CircuitContext& ctx_;
  const ExecTree& tree_;
  const TrialSet& trials_;
  ScheduleVisitor& visitor_;
};

void check_options(const ScheduleOptions& options) {
  RQSIM_CHECK(options.max_states == 0 || options.max_states >= 2,
              "build_exec_tree: max_states must be 0 (unlimited) or >= 2");
}

}  // namespace

OrderedTrials order_trials(const CircuitContext& ctx, TrialSet trials,
                           const ScheduleOptions& options) {
  check_options(options);
  OrderedTrials out;
  {
    TrialOrderer orderer(trials);
    out.tree = TreeBuilder(ctx, orderer, options).build(/*sorted=*/false);
    out.order = orderer.take_order();
  }
  trials.reorder(out.order);
  out.trials = std::move(trials);
  return out;
}

ExecTree build_exec_tree(const CircuitContext& ctx, const TrialSet& trials,
                         const ScheduleOptions& options) {
  RQSIM_CHECK(is_reordered(trials), "build_exec_tree: trials must be reordered first");
  check_options(options);
  TrialOrderer orderer(trials);
  return TreeBuilder(ctx, orderer, options).build(/*sorted=*/true);
}

ExecTree build_exec_tree(const CircuitContext& ctx, const std::vector<Trial>& trials,
                         const ScheduleOptions& options) {
  return build_exec_tree(ctx, TrialSet(trials), options);
}

void linearize_tree(const CircuitContext& ctx, const ExecTree& tree,
                    const TrialSet& trials, ScheduleVisitor& visitor) {
  RQSIM_CHECK(tree.num_trials == trials.size(),
              "linearize_tree: tree was built for a different trial list");
  TreeEmitter(ctx, tree, trials, visitor).run();
}

}  // namespace rqsim
