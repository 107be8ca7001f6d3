// Persistent worker-thread pool ("thread pooling" in the paper's terms).
//
// FFTW 3.1's thread pooling was experimental and off by default, so each
// parallel transform paid thread start-up cost; Spiral's generated code
// keeps p threads alive for the lifetime of the plan and dispatches the
// stages of formula (14) to them with low-latency barriers. This pool
// reproduces that execution model:
//
//   * `p-1` workers are created once (the caller is participant 0);
//   * run(fn) makes all p participants execute fn(task_id) and returns
//     when every participant has finished (barrier semantics);
//   * dispatch and completion cross the team's one barrier, which spins
//     while the team is busy and parks it once it goes idle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "threading/barrier.hpp"

namespace spiral::threading {

class ThreadPool {
 public:
  /// Creates a pool with `threads` total participants (>= 1). The calling
  /// thread is participant 0; `threads - 1` workers are spawned.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of participants (including the caller).
  [[nodiscard]] int size() const noexcept { return threads_; }

  /// Process-wide count of OS threads spawned by ThreadPool constructors.
  /// The pool-sharing tests assert on deltas of this counter to prove a
  /// reused pool never re-spawns its team (the cold-start the service
  /// layer exists to avoid).
  [[nodiscard]] static std::uint64_t threads_spawned() noexcept;

  /// Executes fn(task_id) for task_id in [0, size()) — one task per
  /// participant, caller runs task 0. Blocks until all tasks finished.
  /// The caller acts as participant 0, so any thread may call run() —
  /// the pool is handed between threads by the PoolRegistry — but calls
  /// must be serialized (one run() at a time) and must not be re-entered
  /// from inside a task.
  void run(const std::function<void(int)>& fn);

  /// The team's barrier. Tasks of one run() may cross it to order their
  /// phases (the fused executor's stage transitions), provided every
  /// participant crosses it the same number of times.
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

  /// Executes fn(i) for i in [0, count), distributing iterations over the
  /// participants in contiguous chunks (the schedule rule (7) encodes).
  void parallel_for(idx_t count, const std::function<void(idx_t)>& fn);

 private:
  void worker_loop(int id);

  const int threads_;
  SpinBarrier barrier_;
  const std::function<void(int)>* job_ = nullptr;  // valid between barriers
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
};

}  // namespace spiral::threading
