#include "util/thread_pool.h"

#include <algorithm>

namespace urbane {

/// Shared state of one batch; all fields are guarded by the pool's mutex.
struct ThreadPool::BatchState {
  std::size_t pending = 0;
  std::condition_variable done;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ThreadPool::Batch ThreadPool::CreateBatch() {
  return Batch(this, std::make_shared<BatchState>());
}

void ThreadPool::Batch::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(pool_->mutex_);
    pool_->queue_.push_back({std::move(task), state_});
    ++state_->pending;
  }
  pool_->work_available_.notify_one();
  // A Wait() sleeping on this batch must wake to help with the new task
  // (submit-then-wait from inside a task of the same batch).
  state_->done.notify_all();
}

void ThreadPool::Batch::Wait() {
  std::unique_lock<std::mutex> lock(pool_->mutex_);
  while (state_->pending > 0) {
    // Help: run a queued task of THIS batch on the calling thread. Other
    // batches' tasks are left alone so their latency cannot leak into
    // this wait.
    auto it = std::find_if(
        pool_->queue_.begin(), pool_->queue_.end(),
        [&](const TaskEntry& entry) { return entry.batch == state_; });
    if (it != pool_->queue_.end()) {
      TaskEntry entry = std::move(*it);
      pool_->queue_.erase(it);
      lock.unlock();
      entry.fn();
      lock.lock();
      pool_->FinishTaskLocked(entry.batch);
      continue;
    }
    // Nothing of ours queued: the rest is in flight on workers. Wake on
    // completion (pending -> 0) or on new same-batch submissions.
    state_->done.wait(lock, [&] {
      if (state_->pending == 0) return true;
      return std::any_of(
          pool_->queue_.begin(), pool_->queue_.end(),
          [&](const TaskEntry& entry) { return entry.batch == state_; });
    });
  }
}

void ThreadPool::FinishTaskLocked(const std::shared_ptr<BatchState>& batch) {
  --batch->pending;
  if (batch->pending == 0) {
    batch->done.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    TaskEntry entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down
      }
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    entry.fn();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      FinishTaskLocked(entry.batch);
    }
  }
}

ThreadPool* DefaultThreadPool() {
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace urbane
