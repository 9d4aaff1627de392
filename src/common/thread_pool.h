// A minimal fixed-size thread pool.
//
// Dataset generation and the embedding step are embarrassingly parallel
// over records; the pool lets the linkage pipelines and benchmarks use all
// cores without per-call thread spawn cost.

#ifndef CBVLINK_COMMON_THREAD_POOL_H_
#define CBVLINK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cbvlink {

/// Fixed-size pool executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1; 0 is clamped to the
  /// hardware concurrency, or 1 if that is unknown).
  explicit ThreadPool(size_t num_threads);

  /// Waits for all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Splits [0, total) into roughly equal chunks, runs
  /// `fn(chunk_index, begin, end)` for each on the pool, and waits for
  /// *this call's* chunks only (a private completion latch), so multiple
  /// threads may run ParallelFor on one pool concurrently without
  /// blocking on each other's tasks.  The chunk count is
  /// min(total, num_threads()) and chunk boundaries depend only on
  /// `total` and the pool size, which is what lets callers merge
  /// per-chunk results deterministically.  Must not be called from a
  /// worker thread of the same pool.
  void ParallelFor(size_t total,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  /// ParallelFor with a minimum chunk size: the chunk count is further
  /// capped so every chunk holds at least `min_chunk` items (0 behaves
  /// like the plain overload).  Boundaries still depend only on `total`,
  /// the pool size, and `min_chunk`, so per-chunk merges stay
  /// deterministic; the hint only bounds scheduling overhead for cheap
  /// per-item work.
  void ParallelFor(size_t total, size_t min_chunk,
                   const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// pool->ParallelFor(total, min_chunk, fn), or fn(0, 0, total) on the
/// calling thread when `pool` is null, has one worker, or `total` <= 1.
void ParallelForOrInline(
    ThreadPool* pool, size_t total, size_t min_chunk,
    const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace cbvlink

#endif  // CBVLINK_COMMON_THREAD_POOL_H_
