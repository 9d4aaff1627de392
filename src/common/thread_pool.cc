#include "src/common/thread_pool.h"

#include <algorithm>

namespace cbvlink {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(
    size_t total, const std::function<void(size_t, size_t, size_t)>& fn) {
  ParallelFor(total, 0, fn);
}

void ThreadPool::ParallelFor(
    size_t total, size_t min_chunk,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (total == 0) return;
  size_t chunks = std::min(total, workers_.size());
  if (min_chunk > 1) {
    // At least min_chunk items per chunk, still covering all of [0, total).
    chunks = std::min(chunks, std::max<size_t>(1, total / min_chunk));
  }
  const size_t per = (total + chunks - 1) / chunks;
  // Each call owns its completion latch.  Waiting on the pool-wide
  // in_flight_ counter (the old implementation) made two concurrent
  // ParallelFor calls wait for *each other's* tasks: one caller could be
  // held hostage by another caller's long-running (or blocked) chunks.
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  };
  Completion done;
  done.remaining = (total + per - 1) / per;  // chunks actually submitted
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per;
    const size_t end = std::min(total, begin + per);
    if (begin >= end) break;
    Submit([&fn, &done, c, begin, end] {
      fn(c, begin, end);
      std::unique_lock<std::mutex> lock(done.mu);
      if (--done.remaining == 0) done.cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done.mu);
  done.cv.wait(lock, [&done] { return done.remaining == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelForOrInline(
    ThreadPool* pool, size_t total, size_t min_chunk,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || total <= 1) {
    fn(0, 0, total);
  } else {
    pool->ParallelFor(total, min_chunk, fn);
  }
}

}  // namespace cbvlink
