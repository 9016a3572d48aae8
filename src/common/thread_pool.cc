#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace cgnp {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  // glibc sets up a per-thread malloc arena on a thread's first heap
  // allocation, which costs tens of microseconds. Pay it here, before the
  // worker takes any task, so it never lands inside the first task's
  // latency (a served request's stage trace would show it as unexplained
  // time). The volatile pointer keeps the pair from being elided.
  {
    void* volatile warm = std::malloc(1);
    std::free(warm);
  }
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace cgnp
