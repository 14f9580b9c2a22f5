#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

namespace urbane {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolBatchTest, WaitScopedToOwnTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ThreadPool::Batch batch = pool.CreateBatch();
  for (int i = 0; i < 50; ++i) {
    batch.Submit([&counter] { counter.fetch_add(1); });
  }
  batch.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolBatchTest, BatchIsReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ThreadPool::Batch batch = pool.CreateBatch();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      batch.Submit([&counter] { counter.fetch_add(1); });
    }
    batch.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

// Regression: with the old pool-wide in-flight counter, two callers
// sharing one pool would each block until BOTH finished. Each caller's
// Wait must scope to its own tasks only — concurrent sharded queries on
// the default pool rely on exactly that.
TEST(ThreadPoolBatchTest, ConcurrentBatchCallersDoNotEntangle) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  auto caller = [&] {
    for (int round = 0; round < 20; ++round) {
      ThreadPool::Batch batch = pool.CreateBatch();
      std::atomic<int> mine{0};
      for (int task = 0; task < 32; ++task) {
        batch.Submit([&mine] { mine.fetch_add(64); });
      }
      batch.Wait();
      // Every task of this caller's batch has finished once Wait returns.
      EXPECT_EQ(mine.load(), 32 * 64);
      total.fetch_add(mine.load());
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 2048);
}

// Regression: a task that submits a nested batch and waits on it used to
// deadlock a single-worker pool (the only worker was the waiter). The
// waiter must execute its batch's queued tasks itself.
TEST(ThreadPoolBatchTest, NestedSubmitWaitDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  ThreadPool::Batch outer = pool.CreateBatch();
  outer.Submit([&] {
    ThreadPool::Batch inner = pool.CreateBatch();
    for (int i = 0; i < 8; ++i) {
      inner.Submit([&inner_runs] { inner_runs.fetch_add(1); });
    }
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(inner_runs.load(), 8);
}

// A batch's Wait must return even while another batch holds a worker
// hostage on a long task.
TEST(ThreadPoolBatchTest, WaitDoesNotWaitForOtherBatches) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> slow_started{false};

  ThreadPool::Batch slow = pool.CreateBatch();
  slow.Submit([&slow_started, gate] {
    slow_started.store(true);
    gate.wait();
  });
  while (!slow_started.load()) {
    std::this_thread::yield();
  }

  ThreadPool::Batch quick = pool.CreateBatch();
  std::atomic<int> quick_runs{0};
  for (int i = 0; i < 16; ++i) {
    quick.Submit([&quick_runs] { quick_runs.fetch_add(1); });
  }
  quick.Wait();  // must not block on the gated slow task
  EXPECT_EQ(quick_runs.load(), 16);

  release.set_value();
  slow.Wait();
}

TEST(DefaultThreadPoolTest, IsSingleton) {
  EXPECT_EQ(DefaultThreadPool(), DefaultThreadPool());
  EXPECT_GE(DefaultThreadPool()->num_threads(), 1u);
}

}  // namespace
}  // namespace urbane
