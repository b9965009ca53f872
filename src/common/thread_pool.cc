#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace multilog {

ThreadPool::ThreadPool(size_t num_workers) : max_workers_(num_workers) {}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& w : workers) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    // Each idle worker takes one queued task; the rest would wait
    // behind busy workers, so start one more while the cap allows.
    if (queue_.size() > idle_ && workers_.size() < max_workers_ && !stop_) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (max_workers_ == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-batch state, shared with the helper tasks. `fn` is captured by
  // reference: safe because this frame blocks until every helper that
  // could touch it has finished.
  struct Batch {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t live_helpers = 0;
  };
  auto batch = std::make_shared<Batch>();

  // No point waking more helpers than there are items beyond the one
  // the caller will take.
  const size_t helpers = std::min(max_workers_, n - 1);
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->live_helpers = helpers;
  }
  for (size_t h = 0; h < helpers; ++h) {
    Submit([batch, &fn, n] {
      for (;;) {
        const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
      std::lock_guard<std::mutex> lock(batch->mu);
      if (--batch->live_helpers == 0) batch->done_cv.notify_all();
    });
  }

  for (;;) {
    const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    fn(i);
  }

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&batch] { return batch->live_helpers == 0; });
}

}  // namespace multilog
