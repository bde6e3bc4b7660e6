#include "runlab/thread_pool.h"

#include <cstdlib>
#include <utility>

namespace polarstar::runlab {

unsigned long env_count(const char* name, unsigned long max) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  unsigned long n = 0;
  for (const char* c = v; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
    n = n * 10 + static_cast<unsigned long>(*c - '0');
    if (n > max) return 0;  // max < ULONG_MAX / 10: n * 10 never wraps
  }
  return n;
}

unsigned configured_threads() {
  if (const unsigned long n = env_count("POLARSTAR_THREADS", 1024)) {
    return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = num_threads != 0 ? num_threads : configured_threads();
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock lk(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace polarstar::runlab
