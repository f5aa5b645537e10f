#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "bench_circuits/qft.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "recording_sink.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"
#include "transpile/decompose.hpp"
#include "trial/generator.hpp"

namespace rqsim {
namespace {

StateVector random_state(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector s(n);
  for (std::size_t i = 0; i < s.dim(); ++i) {
    s[i] = cplx(rng.normal(), rng.normal());
  }
  return s;
}

TEST(StateBufferPool, AcquireCopyIsIndependentCopy) {
  StateBufferPool pool;
  const StateVector src = random_state(4, 1);
  StateVector copy = pool.acquire_copy(src);
  EXPECT_TRUE(copy.bitwise_equal(src));
  EXPECT_EQ(pool.alloc_count(), 1u);
  EXPECT_EQ(pool.reuse_count(), 0u);

  apply_x(copy, 0);
  EXPECT_FALSE(copy.bitwise_equal(src));
}

TEST(StateBufferPool, ReleaseThenAcquireReusesTheBuffer) {
  StateBufferPool pool;
  const StateVector src = random_state(4, 2);
  StateVector copy = pool.acquire_copy(src);
  pool.release(std::move(copy));
  EXPECT_EQ(pool.pooled(), 1u);

  StateVector again = pool.acquire_copy(src);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.reuse_count(), 1u);
  EXPECT_EQ(pool.alloc_count(), 1u);
  EXPECT_TRUE(again.bitwise_equal(src));
}

TEST(StateBufferPool, ReusedBufferAdaptsToDifferentRegisterSize) {
  StateBufferPool pool;
  const StateVector small = random_state(3, 3);
  const StateVector large = random_state(6, 4);

  pool.release(pool.acquire_copy(small));
  StateVector grown = pool.acquire_copy(large);
  EXPECT_EQ(grown.num_qubits(), 6u);
  EXPECT_TRUE(grown.bitwise_equal(large));
  EXPECT_EQ(pool.reuse_count(), 1u);

  pool.release(std::move(grown));
  StateVector shrunk = pool.acquire_copy(small);
  EXPECT_EQ(shrunk.num_qubits(), 3u);
  EXPECT_TRUE(shrunk.bitwise_equal(small));
}

TEST(StateBufferPool, FreeListIsBoundedByMaxPooled) {
  StateBufferPool pool(/*max_pooled=*/2);
  const StateVector src = random_state(3, 5);
  for (int i = 0; i < 5; ++i) {
    pool.release(pool.acquire_copy(src));
    StateVector a = pool.acquire_copy(src);
    StateVector b = pool.acquire_copy(src);
    StateVector c = pool.acquire_copy(src);
    pool.release(std::move(a));
    pool.release(std::move(b));
    pool.release(std::move(c));
    EXPECT_LE(pool.pooled(), 2u);
  }
}

TEST(StateBufferPool, ClearDropsPooledBuffers) {
  StateBufferPool pool;
  const StateVector src = random_state(3, 6);
  pool.release(pool.acquire_copy(src));
  EXPECT_EQ(pool.pooled(), 1u);
  pool.clear();
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(CowState, ForkIsFreeUntilFirstWrite) {
  StateBufferPool pool;
  const StateVector golden = random_state(4, 21);
  CowState parent = CowState::adopt(pool.acquire_copy(golden));
  EXPECT_TRUE(parent.unique());

  CowState child = parent.fork();
  EXPECT_FALSE(parent.unique());
  EXPECT_FALSE(child.unique());
  // Forking is a refcount bump: both handles read the same buffer and the
  // pool saw no new copy.
  EXPECT_EQ(&parent.read(), &child.read());
  EXPECT_EQ(pool.alloc_count() + pool.reuse_count(), 1u);

  // First write through the child materializes a private copy; the shared
  // buffer the parent still reads is untouched.
  bool copied = false;
  StateVector& writable = child.mutate(pool, 0, &copied);
  EXPECT_TRUE(copied);
  apply_x(writable, 0);
  EXPECT_TRUE(parent.read().bitwise_equal(golden));
  EXPECT_FALSE(child.read().bitwise_equal(golden));
  EXPECT_TRUE(parent.unique());
  EXPECT_TRUE(child.unique());

  // Sole owner writes in place — no further copies.
  bool copied_again = true;
  child.mutate(pool, 0, &copied_again);
  EXPECT_FALSE(copied_again);

  EXPECT_TRUE(child.drop(pool, 0));
  EXPECT_TRUE(parent.drop(pool, 0));
  EXPECT_EQ(pool.pooled(), 2u);
}

// Concurrent CoW stress: every thread owns a fork of one root buffer and
// repeatedly forks/writes/drops its own lineage. Writers must always land
// in private copies (the root buffer is bitwise-frozen for the whole run),
// refcounting must recycle every materialized buffer, and the copy /
// in-place split is exactly deterministic even under contention.
TEST(CowState, ConcurrentForkMutateDropStress) {
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 100;
  StateBufferPool pool(/*max_pooled=*/64, /*num_shards=*/kThreads);
  const StateVector golden = random_state(6, 42);
  CowState root = CowState::adopt(pool.acquire_copy(golden));

  std::vector<CowState> handles;
  handles.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    handles.push_back(root.fork());
  }

  std::atomic<std::uint64_t> copies{0};
  std::atomic<std::uint64_t> inplace{0};
  std::atomic<std::uint64_t> corruptions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CowState mine = std::move(handles[t]);
      for (int round = 0; round < kRounds; ++round) {
        // Shared with root and every other thread: the write must copy.
        CowState child = mine.fork();
        bool copied = false;
        StateVector& v = child.mutate(pool, t, &copied);
        v[0] = cplx(static_cast<double>(t), static_cast<double>(round));
        if (copied) {
          copies.fetch_add(1, std::memory_order_relaxed);
        }
        if (!mine.read().bitwise_equal(golden)) {
          corruptions.fetch_add(1, std::memory_order_relaxed);
        }
        // Fork the private copy and write through the fork: one more
        // materialization, after which the child is sole owner again and
        // its next write is in place.
        CowState grand = child.fork();
        bool copied_grand = false;
        grand.mutate(pool, t, &copied_grand)[1] = cplx(1.0, 0.0);
        if (copied_grand) {
          copies.fetch_add(1, std::memory_order_relaxed);
        }
        grand.drop(pool, t);
        bool copied_inplace = true;
        child.mutate(pool, t, &copied_inplace)[2] = cplx(2.0, 0.0);
        if (!copied_inplace) {
          inplace.fetch_add(1, std::memory_order_relaxed);
        }
        child.drop(pool, t);
      }
      mine.drop(pool, t);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  EXPECT_EQ(corruptions.load(), 0u);
  EXPECT_EQ(copies.load(), static_cast<std::uint64_t>(kThreads) * kRounds * 2);
  EXPECT_EQ(inplace.load(), static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_TRUE(root.unique());
  EXPECT_TRUE(root.read().bitwise_equal(golden));
  EXPECT_TRUE(root.drop(pool, 0));
}

// N handles of one buffer, no anchored owner, all mutating concurrently:
// exactly one mutate must end up owning the original buffer — either it
// observed itself unique and wrote in place, or its detach was the last
// reference and recycled the buffer (the released_peer race). Any other
// total means a leak or a double release.
TEST(CowState, ConcurrentLastOwnerRace) {
  constexpr std::size_t kThreads = 8;
  StateBufferPool pool(/*max_pooled=*/64, /*num_shards=*/kThreads);
  const StateVector golden = random_state(5, 43);
  for (int round = 0; round < 50; ++round) {
    CowState seed = CowState::adopt(pool.acquire_copy(golden));
    std::vector<CowState> group;
    group.reserve(kThreads);
    for (std::size_t t = 0; t + 1 < kThreads; ++t) {
      group.push_back(seed.fork());
    }
    group.push_back(std::move(seed));

    std::atomic<int> last_owner_events{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        bool copied = false;
        bool released_peer = false;
        StateVector& v = group[t].mutate(pool, t, &copied, &released_peer);
        v[0] = cplx(static_cast<double>(t), 0.0);
        if (!copied || released_peer) {
          last_owner_events.fetch_add(1, std::memory_order_relaxed);
        }
        group[t].drop(pool, t);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    EXPECT_EQ(last_owner_events.load(), 1);
  }
}

// The tree executor materializes a checkpoint copy at every written fork and
// drops it when its subtree of trials finishes; with enough trials the
// drop/copy cycle must start recycling buffers instead of allocating.
TEST(StateBufferPool, CachedRunRecyclesCheckpointBuffers) {
  const Circuit c = decompose_to_cx_basis(make_qft(4));
  const CircuitContext ctx(c);
  const NoiseModel noise = NoiseModel::uniform(4, 0.02, 0.1, 0.01);
  Rng rng(11);
  auto trials = generate_trials(c, ctx.layering, noise, 400, rng);
  reorder_trials(trials);

  for (const std::size_t threads : {1u, 4u}) {
    const TreeExecStats stats = run_recorded(ctx, trials, threads).stats;
    EXPECT_GT(stats.cow_materializations, 0u) << threads << " threads";
    EXPECT_GT(stats.pool_reuses, 0u) << threads << " threads";
    EXPECT_GT(stats.pool_reuses, stats.pool_allocs) << threads << " threads";
  }
}

}  // namespace
}  // namespace rqsim
