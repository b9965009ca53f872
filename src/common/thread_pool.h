#ifndef MULTILOG_COMMON_THREAD_POOL_H_
#define MULTILOG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace multilog {

/// A small bounded worker pool for data-parallel evaluation rounds and
/// the serving loop's requests.
///
/// The pool owns up to `num_workers` threads that drain a FIFO task
/// queue.
/// `ParallelFor(n, fn)` is the only interface the evaluator needs: it
/// runs `fn(0) .. fn(n-1)` across the workers *and the calling thread*
/// (so a pool built with `num_workers = k` gives `k + 1`-way
/// parallelism), returning only after every index has completed. Work
/// is distributed by atomic index-stealing, so uneven item costs
/// balance automatically.
///
/// Thread-safety: Submit and ParallelFor may be called from any thread;
/// concurrent ParallelFor calls from different threads interleave their
/// items on the same workers. `fn` must itself be safe to invoke
/// concurrently on distinct indices.
class ThreadPool {
 public:
  /// A pool of up to `num_workers` threads (0 is allowed: everything
  /// then runs inline on the calling thread). Workers start on demand:
  /// Submit starts one whenever more tasks are queued than workers are
  /// idle, so a large cap costs only the threads that concurrent work
  /// has needed so far.
  explicit ThreadPool(size_t num_workers);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return max_workers_; }

  /// Enqueues one task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n), blocking until all complete.
  /// The caller participates, so items run with up to
  /// `num_workers() + 1` way parallelism.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  const size_t max_workers_;
  std::vector<std::thread> workers_;  // guarded by mu_
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  size_t idle_ = 0;  // workers waiting for a task
  bool stop_ = false;
};

}  // namespace multilog

#endif  // MULTILOG_COMMON_THREAD_POOL_H_
