// Fixed-size worker pool backing the experiment runner.
//
// Deliberately minimal: FIFO queue, submit() never blocks, wait_idle()
// barriers on queue drain. Pool size 1 still executes tasks on a worker
// thread so serial and parallel runs exercise the same code path (a
// POLARSTAR_THREADS=1 run is the determinism baseline, not a special case).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace polarstar::runlab {

/// Strict reader for the integer POLARSTAR_* variables: the value of
/// environment variable `name` when it is a non-empty string of decimal
/// digits in [1, max], otherwise 0 (unset, empty, signed, trailing junk or
/// out of range). `max` must be below ULONG_MAX / 10.
unsigned long env_count(const char* name, unsigned long max);

/// Worker count from the environment: POLARSTAR_THREADS if set to an
/// integer in [1, 1024], otherwise std::thread::hardware_concurrency().
unsigned configured_threads();

class ThreadPool {
 public:
  /// 0 = configured_threads().
  explicit ThreadPool(unsigned num_threads = 0);
  /// Drains the queue (runs every submitted task), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

 private:
  void worker();

  std::mutex mu_;
  std::condition_variable cv_work_;  // workers wait for tasks
  std::condition_variable cv_idle_;  // wait_idle waits for drain
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace polarstar::runlab
