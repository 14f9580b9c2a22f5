#ifndef URBANE_UTIL_THREAD_POOL_H_
#define URBANE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace urbane {

/// Fixed-size worker pool. Tasks are `std::function<void()>`, submitted
/// through a `Batch` — a wait token scoping a group of tasks.
/// `Batch::Wait()` blocks only on that group, so concurrent callers sharing
/// one pool never wait on each other's work, and a task may submit-then-wait
/// a nested batch without deadlocking (the waiter executes its own queued
/// tasks while it waits).
///
/// The sharded executor scatters one task per row-range shard onto a pool,
/// the software stand-in for the GPU's parallel fragment processing;
/// concurrent sharded queries share the default pool through their own
/// batches.
class ThreadPool {
 public:
  struct BatchState;

  /// A wait token for one group of tasks. Copyable (copies share the
  /// group); reusable (submit more tasks after a Wait).
  class Batch {
   public:
    /// Enqueues a task belonging to this batch. Never blocks.
    void Submit(std::function<void()> task);

    /// Blocks until every task submitted to THIS batch has completed.
    /// Tasks of the batch still sitting in the queue are executed by the
    /// calling thread (so waiting from inside a worker cannot deadlock);
    /// other batches' tasks are never stolen.
    void Wait();

   private:
    friend class ThreadPool;
    Batch(ThreadPool* pool, std::shared_ptr<BatchState> state)
        : pool_(pool), state_(std::move(state)) {}

    ThreadPool* pool_;
    std::shared_ptr<BatchState> state_;
  };

  /// `num_threads == 0` selects `std::thread::hardware_concurrency()`
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Creates an independent wait token.
  Batch CreateBatch();

 private:
  struct TaskEntry {
    std::function<void()> fn;
    std::shared_ptr<BatchState> batch;
  };

  void WorkerLoop();
  /// Bookkeeping after a task ran; requires `mutex_` held.
  void FinishTaskLocked(const std::shared_ptr<BatchState>& batch);

  std::vector<std::thread> workers_;
  std::deque<TaskEntry> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
};

/// Returns a lazily-constructed process-wide pool sized to the hardware.
ThreadPool* DefaultThreadPool();

}  // namespace urbane

#endif  // URBANE_UTIL_THREAD_POOL_H_
