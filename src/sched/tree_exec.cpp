#include "sched/tree_exec.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "circuit/fusion.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/pauli_string.hpp"
#include "sched/backend.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trial/frame.hpp"

namespace rqsim {

namespace {

/// Free buffers retained across the run.
constexpr std::size_t kMaxPooledBuffers = 64;

/// Total bytes of zero-filled buffers prewarm may page in before workers
/// start; beyond this, first-touch faulting on the workers is cheaper than
/// serializing startup behind a giant memset.
constexpr std::size_t kPrewarmByteCap = std::size_t{512} << 20;

// "sim.matvec_ops" mirrors the per-worker ops accumulation (same logical
// metric as the baseline loop, interned by name) so the runtime total
// reconciles bitwise with TreeExecStats::ops and the PlanVerifier proof.
telemetry::Counter g_matvec_ops("sim.matvec_ops");
telemetry::Counter g_steals("tree_exec.steals");
telemetry::Counter g_inline_fallbacks("tree_exec.inline_fallbacks");
telemetry::Counter g_forks("tree_exec.forks");
telemetry::Counter g_tasks("tree_exec.tasks");
telemetry::Counter g_chunk_tasks("tree_exec.chunk_tasks");
telemetry::Counter g_frame_collapsed_trials("sim.frame_collapsed_trials");
telemetry::Counter g_frame_ops("sim.frame_ops");
telemetry::Histogram g_worker_ops("tree_exec.worker_ops");

struct Task {
  /// Chunk task: the sibling subtrees that tile nodes [begin, end) — a
  /// same-frontier run of one parent's children — each forking its entry
  /// handle from `handle`. The root task is [0, nodes.size()), the only
  /// range that starts at node 0: it executes the root on `handle` itself.
  std::size_t begin = 0;
  std::size_t end = 0;
  CowState handle;
  /// MSV-budget tokens held by this task's subtree (0 when the budget is
  /// unlimited or the subtree runs inline under its parent's reservation).
  std::size_t reserved = 0;
};

class TreeExecutor {
 public:
  TreeExecutor(const CircuitContext& ctx, const ExecTree& tree,
               const TrialSet& trials, const TreeExecConfig& config,
               TreeTrialSink& sink)
      : ctx_(ctx),
        tree_(tree),
        trials_(trials),
        sink_(sink),
        num_workers_(std::max<std::size_t>(1, config.num_threads)),
        budget_(tree.max_states),
        pool_(kMaxPooledBuffers, num_workers_),
        workers_(num_workers_) {
    if (config.fuse_gates) {
      for (Worker& w : workers_) {
        w.fusion = std::make_unique<FusionCache>(ctx.circuit, ctx.layering);
      }
    }
  }

  TreeExecStats run() {
    RQSIM_SPAN("tree_exec.run");
    TreeExecStats stats;
    if (tree_.nodes.empty()) {
      return stats;
    }
    // Admission tokens cover *materialized* buffers only. A CoW fork is a
    // refcount bump — a queued, unmaterialized handle occupies no memory —
    // so with no user budget there is nothing to ration: every chunk
    // queues, reservations are skipped entirely, and inline_fallbacks
    // stays zero. With a budget, the banker scheme reserves each subtree's
    // sequential peak before it may run concurrently; the root takes the
    // whole tree peak (the replay lowering guarantees it fits).
    if (budget_ != 0) {
      RQSIM_CHECK(tree_.peak_demand <= budget_,
                  "execute_tree: tree peak demand exceeds its MSV budget");
      effective_budget_ = budget_;
      tokens_left_.store(budget_ - tree_.peak_demand, std::memory_order_relaxed);
    } else {
      effective_budget_ = static_cast<std::size_t>(-1);
      tokens_left_.store(0, std::memory_order_relaxed);
    }

    // Work granularity: a chunk of sibling subtrees is sized so each worker
    // sees a handful of coarse steals instead of one deque entry per fork.
    chunk_target_ = std::max<opcount_t>(
        1, tree_.planned_ops / static_cast<opcount_t>(num_workers_ * 4));

    prewarm_pool();

    StateVector root_state(ctx_.circuit.num_qubits());
    note_materialize();
    outstanding_.store(1, std::memory_order_relaxed);
    {
      Task root;
      root.end = tree_.nodes.size();
      root.handle = CowState::adopt(std::move(root_state));
      root.reserved = budget_ != 0 ? tree_.peak_demand : 0;
      std::lock_guard<std::mutex> lock(workers_[0].mutex);
      workers_[0].deque.push_back(std::move(root));
    }

    if (num_workers_ == 1) {
      worker_loop(0);
    } else {
      // Fresh pool threads have an empty trace context; hand them the
      // spawning thread's (the service worker's, carrying the batch's
      // trace id) so their spans join the job's distributed trace.
      const std::uint64_t trace_id = telemetry::current_trace_id();
      std::vector<std::thread> threads;
      threads.reserve(num_workers_);
      for (std::size_t w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w, trace_id] {
          telemetry::set_trace_context(trace_id);
          worker_loop(w);
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }

    if (error_ != nullptr) {
      std::rethrow_exception(error_);
    }
    RQSIM_CHECK(outstanding_.load(std::memory_order_relaxed) == 0 &&
                    live_.load(std::memory_order_relaxed) == 0,
                "execute_tree: task or buffer accounting leak");
    for (const Worker& w : workers_) {
      stats.ops += w.ops;
      stats.fork_copies += w.fork_copies;
      stats.cow_materializations += w.cow_materializations;
      stats.chunk_tasks += w.chunk_tasks;
      stats.steals += w.steals;
      stats.inline_fallbacks += w.inline_fallbacks;
      stats.frame_collapsed_trials += w.frame_trials;
      stats.frame_ops += w.frame_ops;
      g_worker_ops.record(w.ops);
    }
    g_matvec_ops.add(stats.ops);
    g_forks.add(stats.fork_copies);
    g_frame_collapsed_trials.add(stats.frame_collapsed_trials);
    g_frame_ops.add(stats.frame_ops);
    stats.max_live_states = max_live_.load(std::memory_order_relaxed);
    stats.pool_reuses = pool_.reuse_count();
    stats.pool_allocs = pool_.alloc_count();
    stats.prewarmed = pool_.prewarm_count();
    return stats;
  }

 private:
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<Task> deque;
    std::unique_ptr<FusionCache> fusion;
    /// The finishing node's frame trials, copied out of ExecTree::frames
    /// for TreeTrialSink::on_finish_frames.
    std::vector<FrameTrial> frames;
    opcount_t ops = 0;
    std::uint64_t fork_copies = 0;
    std::uint64_t cow_materializations = 0;
    std::uint64_t chunk_tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t inline_fallbacks = 0;
    std::uint64_t frame_trials = 0;
    std::uint64_t frame_ops = 0;
  };

  // ---- pool pre-warm ----------------------------------------------------

  void prewarm_pool() {
    if (tree_.planned_forks == 0) {
      return;
    }
    const unsigned n = ctx_.circuit.num_qubits();
    const std::size_t buffer_bytes = sizeof(cplx) << n;
    // A worker's steady-state shard traffic is its share of the live-state
    // peak plus slack for the chunks it runs back to back.
    std::size_t per_shard =
        std::min<std::size_t>(8, tree_.peak_demand / num_workers_ + 3);
    // Byte cap: at large qubit counts faulting the pages lazily on the
    // workers beats a serial up-front memset of GiBs.
    const std::size_t cap_buffers =
        kPrewarmByteCap / std::max<std::size_t>(1, buffer_bytes * num_workers_);
    per_shard = std::min(per_shard, cap_buffers);
    if (per_shard > 0) {
      pool_.prewarm(n, per_shard);
    }
  }

  // ---- live-state accounting -------------------------------------------

  /// One more *materialized* statevector exists (root adoption, or a CoW
  /// copy). Unmaterialized forks never pass through here — that is the
  /// whole point of the reformed accounting.
  void note_materialize() {
    const std::size_t live = live_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::size_t seen = max_live_.load(std::memory_order_relaxed);
    while (live > seen &&
           !max_live_.compare_exchange_weak(seen, live, std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
    }
    // The banker reservation makes this a structural guarantee; the check
    // turns any accounting bug into a loud failure instead of a silently
    // blown memory budget.
    RQSIM_CHECK(live <= effective_budget_,
                "execute_tree: live statevectors exceed the MSV budget");
  }

  /// Mutable access to the handle's buffer, materializing (and accounting)
  /// a private copy when the buffer is shared.
  StateVector& writable(std::size_t w, CowState& handle) {
    bool copied = false;
    bool released_peer = false;
    StateVector& state = handle.mutate(pool_, w, &copied, &released_peer);
    if (copied) {
      telemetry::trace_instant("tree_exec.materialize");
      workers_[w].cow_materializations += 1;
      // released_peer: every other handle dropped between the shared check
      // and the detach, so the old buffer went back to the pool — the copy
      // replaced it one-for-one and the live count is unchanged.
      if (!released_peer) {
        note_materialize();
      }
    }
    return state;
  }

  /// A child subtree's entry handle: the schedule fork (counted as a fork
  /// copy so stats.fork_copies == planned_forks at every thread count,
  /// exactly as when forks were eager copies), realized as a refcount bump.
  CowState fork_entry(std::size_t w, const CowState& src) {
    telemetry::trace_instant("tree_exec.fork");
    workers_[w].fork_copies += 1;
    return src.fork();
  }

  /// The schedule fork for the *last* consumer of a dead handle: the parent
  /// buffer moves instead of forking, so the child's first write is
  /// guaranteed in-place — a materialization the CoW scheme can prove
  /// eliminated regardless of scheduling timing.
  CowState move_entry(std::size_t w, CowState& src) {
    telemetry::trace_instant("tree_exec.fork");
    workers_[w].fork_copies += 1;
    return std::move(src);
  }

  void drop_handle(std::size_t w, CowState& handle) {
    if (!handle.valid()) {
      return;
    }
    telemetry::trace_instant("tree_exec.drop");
    if (handle.drop(pool_, w)) {
      live_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  bool try_reserve(std::size_t tokens) {
    std::size_t cur = tokens_left_.load(std::memory_order_relaxed);
    while (cur >= tokens) {
      if (tokens_left_.compare_exchange_weak(cur, cur - tokens,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void release_tokens(std::size_t tokens) {
    tokens_left_.fetch_add(tokens, std::memory_order_acq_rel);
  }

  // MSV token occupancy timeline: sampled after every reserve/release so
  // the exported trace carries a stepped reserved-tokens track. The load is
  // racy by design — the track is an observation, not an invariant.
  void note_token_occupancy() {
    if (!telemetry::tracing_active()) {
      return;
    }
    const std::size_t left = tokens_left_.load(std::memory_order_relaxed);
    telemetry::trace_counter("tree_exec.msv_tokens_reserved",
                             effective_budget_ - left);
  }

  // ---- scheduling -------------------------------------------------------

  bool pop_local(std::size_t w, Task& out) {
    std::lock_guard<std::mutex> lock(workers_[w].mutex);
    if (workers_[w].deque.empty()) {
      return false;
    }
    out = std::move(workers_[w].deque.back());
    workers_[w].deque.pop_back();
    return true;
  }

  bool steal(std::size_t thief, Task& out) {
    for (std::size_t k = 1; k < num_workers_; ++k) {
      Worker& victim = workers_[(thief + k) % num_workers_];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.deque.empty()) {
        // Front of the deque = oldest pending chunk = the largest batch of
        // work; stealing coarse keeps steals rare.
        out = std::move(victim.deque.front());
        victim.deque.pop_front();
        workers_[thief].steals += 1;
        g_steals.increment();
        telemetry::trace_instant("tree_exec.steal");
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t w) {
    if (num_workers_ > 1) {
      // Dedicated pool threads get their own trace lane; the 1-thread path
      // runs on the caller's thread and keeps its lane.
      telemetry::set_thread_lane("tree_exec.worker-" + std::to_string(w));
    }
    Task task;
    for (;;) {
      if (pop_local(w, task) || steal(w, task)) {
        run_task(w, task);
        continue;
      }
      if (outstanding_.load(std::memory_order_acquire) == 0) {
        return;
      }
      // Bounded nap as the wakeup backstop: a producer's notify can land
      // between our empty scan and the wait, so never sleep unbounded.
      std::unique_lock<std::mutex> lock(idle_mutex_);
      idle_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

  void run_task(std::size_t w, Task& task) {
    RQSIM_SPAN("tree_exec.task");
    g_tasks.increment();
    try {
      if (abort_.load(std::memory_order_relaxed)) {
        drop_handle(w, task.handle);
      } else if (task.begin != 0) {
        exec_chunk(w, task.begin, task.end, task.handle);
      } else {
        exec_node(w, 0, task.handle);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (error_ == nullptr) {
          error_ = std::current_exception();
        }
      }
      abort_.store(true, std::memory_order_release);
      // Live-state accounting may be off after an exception; results are
      // discarded on the rethrow path anyway.
      live_.store(0, std::memory_order_relaxed);
    }
    if (task.reserved != 0) {
      release_tokens(task.reserved);
      note_token_occupancy();
    }
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      idle_cv_.notify_all();
    }
  }

  /// Hand the sibling subtrees tiling nodes [begin, end) — a same-frontier
  /// run of one parent's children, sized against chunk_target_ — to the
  /// scheduler as one unit. `handle` shares the parent buffer at the run's
  /// entry frontier (or *is* the parent buffer, moved, for the final chunk
  /// of a tail-less node).
  void dispatch_chunk(std::size_t w, std::size_t begin, std::size_t end,
                      CowState handle) {
    if (tree_.nodes[begin].subtree_end != end) {
      workers_[w].chunk_tasks += 1;
      g_chunk_tasks.increment();
    }
    if (num_workers_ > 1) {
      bool admit = true;
      std::size_t need = 0;
      if (budget_ != 0) {
        // Banker reservation: one token pins the chunk's snapshot buffer
        // (the parent materializes past it), plus the widest child
        // subtree's sequential peak — the chunk runs its children one at a
        // time. need <= 1 + (parent.peak - 1) = parent.peak, so any chunk
        // fits the budget the tree was built for.
        std::size_t child_peak = 0;
        for (std::size_t c = begin; c < end; c = tree_.nodes[c].subtree_end) {
          child_peak = std::max<std::size_t>(child_peak, tree_.nodes[c].peak_demand);
        }
        need = 1 + child_peak;
        admit = try_reserve(need);
        if (admit) {
          note_token_occupancy();
        }
      }
      if (admit) {
        outstanding_.fetch_add(1, std::memory_order_acq_rel);
        {
          Task task;
          task.begin = begin;
          task.end = end;
          task.handle = std::move(handle);
          task.reserved = need;
          std::lock_guard<std::mutex> lock(workers_[w].mutex);
          workers_[w].deque.push_back(std::move(task));
        }
        idle_cv_.notify_one();
        return;
      }
      // Reservation failed: the MSV budget is exhausted, so the chunk runs
      // inline instead of spawning. Inline execution stays within the
      // parent's own reservation — the chunk shares the parent's current
      // buffer (no extra pin) and a parent's peak is 1 + max(children
      // peaks), so its slack always covers one child subtree at a time.
      // Progress is guaranteed, never a deadlock.
      workers_[w].inline_fallbacks += 1;
      g_inline_fallbacks.increment();
      telemetry::trace_instant("tree_exec.inline_fallback");
    }
    exec_chunk(w, begin, end, handle);
  }

  // ---- node execution ---------------------------------------------------

  void advance(std::size_t w, StateVector& state, layer_index_t from,
               layer_index_t to) {
    Worker& worker = workers_[w];
    if (worker.fusion != nullptr) {
      apply_fused(state, worker.fusion->segment(from, to));
    } else {
      apply_layers(ctx_, state, from, to);
    }
    worker.ops += ctx_.ops_in_layers(from, to);
  }

  void exec_node(std::size_t w, std::size_t idx, CowState& handle) {
    if (tree_.nodes[idx].kind == TreeNode::Kind::kReplay) {
      exec_replay(w, idx, handle);
    } else {
      exec_branch(w, idx, handle);
    }
  }

  /// Execute the sibling subtrees tiling nodes [begin, end) sequentially.
  /// Every child's entry handle forks from the chunk handle except the
  /// last, which takes the handle itself — the chunk's final fork never
  /// leaves a peer behind.
  void exec_chunk(std::size_t w, std::size_t begin, std::size_t end,
                  CowState& handle) {
    for (std::size_t c = begin; c < end;) {
      if (abort_.load(std::memory_order_relaxed)) {
        break;
      }
      const std::size_t next = tree_.nodes[c].subtree_end;
      CowState entry = next == end ? move_entry(w, handle) : fork_entry(w, handle);
      exec_node(w, c, entry);
      c = next;
    }
    drop_handle(w, handle);
  }

  void exec_branch(std::size_t w, std::size_t idx, CowState& handle) {
    const TreeNode& node = tree_.nodes[idx];
    layer_index_t frontier = node.entry_frontier;
    if (idx != 0) {
      apply_error_event(ctx_, writable(w, handle), node.entry_event);
      workers_[w].ops += 1;
    }
    // Children are the sibling chain from idx + 1 to node.subtree_end; a
    // run or chunk of them is the node range their subtrees tile.
    const std::size_t last = node.subtree_end;
    std::size_t c = idx + 1;
    while (c < last && !abort_.load(std::memory_order_relaxed)) {
      // Maximal run of children forked at the same frontier: one parent
      // advance feeds them all, so the whole run shares one buffer
      // snapshot and can be chunked without duplicating any advance.
      const layer_index_t run_frontier = tree_.nodes[c].entry_frontier;
      std::size_t run_end = tree_.nodes[c].subtree_end;
      while (run_end < last && tree_.nodes[run_end].entry_frontier == run_frontier) {
        run_end = tree_.nodes[run_end].subtree_end;
      }
      if (run_frontier > frontier) {
        advance(w, writable(w, handle), frontier, run_frontier);
        frontier = run_frontier;
      }
      while (c < run_end) {
        std::size_t chunk_end = tree_.nodes[c].subtree_end;
        opcount_t acc = tree_.nodes[c].subtree_ops;
        while (chunk_end < run_end && acc < chunk_target_) {
          acc += tree_.nodes[chunk_end].subtree_ops;
          chunk_end = tree_.nodes[chunk_end].subtree_end;
        }
        if (!node.has_tail() && chunk_end == last) {
          // The node's buffer has no consumer after its last fork: move it
          // into the final chunk so the last child's first write is
          // in-place — one materialization provably saved per tail-less
          // node, independent of scheduling timing.
          dispatch_chunk(w, c, chunk_end, std::move(handle));
        } else {
          dispatch_chunk(w, c, chunk_end, handle.fork());
        }
        c = chunk_end;
      }
    }
    // Tail trials and frame-collapsed trials both finish on this node's
    // own buffer after the final advance.
    if (!abort_.load(std::memory_order_relaxed) && node.has_tail()) {
      const auto total = static_cast<layer_index_t>(ctx_.num_layers());
      if (total > frontier) {
        advance(w, writable(w, handle), frontier, total);
        frontier = total;
      }
      finish_node_outputs(w, idx, node, handle.read());
    }
    drop_handle(w, handle);
  }

  void exec_replay(std::size_t w, std::size_t idx, CowState& handle) {
    const TreeNode& node = tree_.nodes[idx];
    const TrialView trial = trials_[node.begin];
    layer_index_t frontier = node.entry_frontier;
    for (std::size_t k = node.event_depth; k < trial.events.size(); ++k) {
      const ErrorEvent& event = trial.events[k];
      const layer_index_t target = event.layer + 1;
      if (target > frontier) {
        advance(w, writable(w, handle), frontier, target);
        frontier = target;
      }
      apply_error_event(ctx_, writable(w, handle), event);
      workers_[w].ops += 1;
    }
    const auto total = static_cast<layer_index_t>(ctx_.num_layers());
    if (total > frontier) {
      advance(w, writable(w, handle), frontier, total);
    }
    finish_group(idx, node.begin, 1, handle.read());
    drop_handle(w, handle);
  }

  // ---- trial finishing ---------------------------------------------------

  void finish_group(std::size_t node, std::size_t first, std::size_t count,
                    const StateVector& state) {
    const std::vector<qubit_t>& measured = ctx_.circuit.measured_qubits();
    if (measured.empty()) {
      sink_.on_finish_group(node, first, count, state, nullptr);
      return;
    }
    const std::vector<double> probs = measurement_probabilities(state, measured);
    sink_.on_finish_group(node, first, count, state, &probs);
  }

  /// Deliver a branch node's tail group and frame-collapsed trials off one
  /// shared distribution evaluation.
  void finish_node_outputs(std::size_t w, std::size_t idx, const TreeNode& node,
                           const StateVector& state) {
    const std::vector<qubit_t>& measured = ctx_.circuit.measured_qubits();
    std::vector<double> probs;
    const std::vector<double>* probs_ptr = nullptr;
    if (!measured.empty()) {
      probs = measurement_probabilities(state, measured);
      probs_ptr = &probs;
    }
    if (node.tail_begin != node.end) {
      sink_.on_finish_group(idx, node.tail_begin, node.end - node.tail_begin, state,
                            probs_ptr);
    }
    const std::span<const FrameTrial> frames = tree_.frames_of(node);
    if (!frames.empty()) {
      Worker& worker = workers_[w];
      worker.frames.assign(frames.begin(), frames.end());
      sink_.on_finish_frames(idx, worker.frames, state, probs_ptr);
      worker.frame_trials += frames.size();
      for (const FrameTrial& ft : frames) {
        worker.frame_ops += ft.frame_ops;
      }
    }
  }

  const CircuitContext& ctx_;
  const ExecTree& tree_;
  const TrialSet& trials_;
  TreeTrialSink& sink_;
  const std::size_t num_workers_;
  const std::size_t budget_;
  std::size_t effective_budget_ = 0;
  opcount_t chunk_target_ = 1;

  StateBufferPool pool_;
  std::vector<Worker> workers_;

  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> tokens_left_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> max_live_{1};
  std::atomic<bool> abort_{false};

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace

TreeExecStats execute_tree(const CircuitContext& ctx, const ExecTree& tree,
                           const TrialSet& trials, const TreeExecConfig& config,
                           TreeTrialSink& sink) {
  RQSIM_CHECK(tree.num_trials == trials.size(),
              "execute_tree: tree was built for a different trial list");
  return TreeExecutor(ctx, tree, trials, config, sink).run();
}

TreeExecStats execute_tree(const CircuitContext& ctx, const ExecTree& tree,
                           const std::vector<Trial>& trials,
                           const TreeExecConfig& config, TreeTrialSink& sink) {
  return execute_tree(ctx, tree, TrialSet(trials), config, sink);
}

// --------------------------------------------------------------------------
// SampledTrialSink

SampledTrialSink::SampledTrialSink(const CircuitContext& ctx, const TrialSet& trials,
                                   const std::vector<PauliString>* observables)
    : SampledTrialSink(ctx, trials, nullptr, {observables}) {}

SampledTrialSink::SampledTrialSink(
    const CircuitContext& ctx, const TrialSet& trials,
    const std::vector<std::size_t>* trial_jobs,
    const std::vector<const std::vector<PauliString>*>& job_observables)
    : SampledTrialSink(ctx, nullptr, &trials, trial_jobs, job_observables) {}

SampledTrialSink::SampledTrialSink(const CircuitContext& ctx,
                                   const std::vector<Trial>& trials,
                                   const std::vector<PauliString>* observables)
    : SampledTrialSink(ctx, std::make_unique<const TrialSet>(trials), nullptr, nullptr,
                       {observables}) {}

SampledTrialSink::SampledTrialSink(
    const CircuitContext& ctx, std::unique_ptr<const TrialSet> owned,
    const TrialSet* trials, const std::vector<std::size_t>* trial_jobs,
    const std::vector<const std::vector<PauliString>*>& job_observables)
    : ctx_(ctx),
      owned_(std::move(owned)),
      trials_(trials != nullptr ? *trials : *owned_),
      trial_jobs_(trial_jobs) {
  RQSIM_CHECK(trial_jobs == nullptr || trial_jobs->size() == trials_.size(),
              "SampledTrialSink: one job index per trial");
  sampled_ = !ctx.circuit.measured_qubits().empty();
  if (sampled_) {
    outcomes_.assign(trials_.size(), 0);
  }
  static const std::vector<PauliString> kNone;
  jobs_.reserve(job_observables.size());
  for (const std::vector<PauliString>* observables : job_observables) {
    JobObservables& job = jobs_.emplace_back();
    job.list = observables != nullptr ? observables : &kNone;
    for (const PauliString& p : *job.list) {
      std::uint64_t mask = 0;
      for (const auto& [q, pauli] : p.factors()) {
        if (pauli == Pauli::X || pauli == Pauli::Y) {
          mask |= std::uint64_t{1} << q;
        }
      }
      job.xmask.push_back(mask);
    }
    stride_ = std::max(stride_, job.list->size());
  }
  expectations_.assign(trials_.size() * stride_, 0.0);
}

void SampledTrialSink::evaluate(std::size_t job, const StateVector& state,
                                std::size_t& values_job,
                                std::vector<double>& values) const {
  if (values_job == job) {
    return;
  }
  const std::vector<PauliString>& observables = *jobs_[job].list;
  values.resize(observables.size());
  for (std::size_t k = 0; k < observables.size(); ++k) {
    values[k] = expectation(state, observables[k]);
  }
  values_job = job;
}

void SampledTrialSink::on_finish_group(std::size_t node, std::size_t first_trial,
                                       std::size_t count, const StateVector& state,
                                       const std::vector<double>* probs) {
  (void)node;
  if (sampled_) {
    RQSIM_CHECK(probs != nullptr, "SampledTrialSink: missing distribution");
    for (std::size_t t = first_trial; t < first_trial + count; ++t) {
      const TrialView trial = trials_[t];
      Rng trial_rng(trial.meas_seed);
      outcomes_[t] = sample_outcome(*probs, trial_rng) ^ trial.meas_flip_mask;
    }
  }
  if (stride_ == 0) {
    return;
  }
  // One evaluation per finishing buffer and job, shared by the job's
  // trials in the group; each trial's value is bitwise what its own state
  // evaluates to.
  std::vector<double> values;
  std::size_t values_job = jobs_.size();
  for (std::size_t t = first_trial; t < first_trial + count; ++t) {
    evaluate(job_of(t), state, values_job, values);
    std::copy(values.begin(), values.end(),
              expectations_.begin() + static_cast<std::ptrdiff_t>(t * stride_));
  }
}

void SampledTrialSink::on_finish_frames(std::size_t node,
                                        const std::vector<FrameTrial>& frames,
                                        const StateVector& state,
                                        const std::vector<double>* probs) {
  (void)node;
  // One evaluation per finishing buffer and job; each frame trial then
  // signs the shared value by its Z mask's anticommutation parity —
  // bitwise what the trial's own forked (sign-flipped) statevector
  // evaluates to.
  std::vector<double> values;
  std::size_t values_job = jobs_.size();
  const std::vector<qubit_t>& measured = ctx_.circuit.measured_qubits();
  for (const FrameTrial& ft : frames) {
    const std::size_t t = ft.trial;
    if (sampled_) {
      RQSIM_CHECK(probs != nullptr, "SampledTrialSink: missing distribution");
      const PauliFrame frame{ft.frame_x, ft.frame_z};
      const std::uint64_t flip = frame_outcome_flip(frame, measured);
      const TrialView trial = trials_[t];
      Rng trial_rng(trial.meas_seed);
      outcomes_[t] = sample_outcome_permuted(*probs, flip, trial_rng) ^
                     trial.meas_flip_mask;
    }
    if (stride_ == 0) {
      continue;
    }
    const std::size_t job = job_of(t);
    evaluate(job, state, values_job, values);
    const std::vector<std::uint64_t>& xmask = jobs_[job].xmask;
    for (std::size_t k = 0; k < values.size(); ++k) {
      const bool negate = (std::popcount(ft.frame_z & xmask[k]) & 1) != 0;
      expectations_[t * stride_ + k] = negate ? -values[k] : values[k];
    }
  }
}

OutcomeHistogram SampledTrialSink::take_histogram(std::size_t job) {
  OutcomeHistogram histogram;
  if (sampled_) {
    for (std::size_t t = 0; t < trials_.size(); ++t) {
      if (job_of(t) == job) {
        ++histogram[outcomes_[t]];
      }
    }
  }
  return histogram;
}

std::vector<double> SampledTrialSink::take_observable_sums(std::size_t job) {
  const std::size_t k_count = jobs_.at(job).list->size();
  std::vector<double> sums(k_count, 0.0);
  if (k_count == 0) {
    return sums;
  }
  // Trial-index order == the sequential schedule's finish order, fixed
  // whatever the thread count.
  for (std::size_t t = 0; t < trials_.size(); ++t) {
    if (job_of(t) != job) {
      continue;
    }
    for (std::size_t k = 0; k < k_count; ++k) {
      sums[k] += expectations_[t * stride_ + k];
    }
  }
  return sums;
}

}  // namespace rqsim
