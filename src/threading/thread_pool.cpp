#include "threading/thread_pool.hpp"

namespace spiral::threading {

namespace {
std::atomic<std::uint64_t> g_threads_spawned{0};
}  // namespace

std::uint64_t ThreadPool::threads_spawned() noexcept {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads), barrier_(threads) {
  util::require(threads >= 1, "ThreadPool requires at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int id = 1; id < threads; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
    g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  if (threads_ > 1) {
    shutdown_.store(true, std::memory_order_release);
    barrier_.wait();  // release workers into the shutdown check
    for (auto& w : workers_) w.join();
  }
}

void ThreadPool::worker_loop(int id) {
  for (;;) {
    barrier_.wait();  // dispatch
    if (shutdown_.load(std::memory_order_acquire)) return;
    (*job_)(id);
    barrier_.wait();  // completion
  }
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  barrier_.wait();  // release workers
  fn(0);            // caller is participant 0
  barrier_.wait();  // wait for everyone
  job_ = nullptr;
}

void ThreadPool::parallel_for(idx_t count,
                              const std::function<void(idx_t)>& fn) {
  if (threads_ == 1 || count <= 1) {
    for (idx_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const idx_t p = threads_;
  run([&](int task) {
    // Contiguous chunks: iterations [task*count/p, (task+1)*count/p).
    const idx_t lo = static_cast<idx_t>(task) * count / p;
    const idx_t hi = (static_cast<idx_t>(task) + 1) * count / p;
    for (idx_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace spiral::threading
