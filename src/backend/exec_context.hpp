// Per-caller execution state for Program/FftPlan.
//
// A planned program is immutable after construction; everything mutable
// that execution needs — the ping-pong scratch buffers and the worker
// team running the parallel stages — lives in an ExecContext. One program
// can therefore serve any number of client threads concurrently, each
// bringing its own context:
//
//   backend::ExecContext ctx;                 // cheap; buffers grow lazily
//   plan->execute(ctx, x, y);                 // safe from many threads,
//                                             // one context per thread
//
// Worker pools are SHARED, not owned: a context leases its team from the
// process-wide threading::PoolRegistry (keyed by thread count) on first
// parallel execution and returns it on destruction or reset(). Plans
// borrow whatever pool the caller's context holds, so destroying a plan
// never tears a team down, and a fresh context on a server thread picks
// up a warm team instead of cold-starting one (zero thread spawns —
// asserted in the pool-sharing tests). A context may be reused across
// programs (buffers grow to the largest size seen; the lease is swapped
// only when a program needs more threads than the leased pool has). A
// single context must NOT be used by two threads at the same time — it is
// the per-caller half of the plan/context split, not a synchronization
// primitive.
#pragma once

#include "threading/pool_registry.hpp"
#include "threading/thread_pool.hpp"
#include "util/aligned_vector.hpp"

namespace spiral::backend {

class Program;

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Borrows an external worker pool for this context (overrides the
  /// registry lease). Pass nullptr to return to the leased pool. The
  /// FFTW-like baseline uses this to model per-call thread start-up.
  void set_pool(threading::ThreadPool* pool) noexcept {
    borrowed_pool_ = pool;
  }

  /// Returns the leased worker team to the registry and shrinks the
  /// scratch buffers.
  void reset() {
    lease_.release();
    buf_[0].clear();
    buf_[0].shrink_to_fit();
    buf_[1].clear();
    buf_[1].shrink_to_fit();
  }

 private:
  friend class Program;

  /// Grows the scratch buffers to hold n elements (never shrinks).
  void ensure_buffers(idx_t n, bool need_second) {
    if (static_cast<idx_t>(buf_[0].size()) < n) {
      buf_[0].resize(static_cast<std::size_t>(n));
    }
    if (need_second && static_cast<idx_t>(buf_[1].size()) < n) {
      buf_[1].resize(static_cast<std::size_t>(n));
    }
  }

  /// The pool parallel stages should dispatch to: an explicitly borrowed
  /// team if set, else the registry lease (acquired on first use, swapped
  /// only if a program needs more participants than the leased team has —
  /// programs needing fewer fold their tasks onto the larger team).
  threading::ThreadPool* pool_for(int threads) {
    if (borrowed_pool_ != nullptr) return borrowed_pool_;
    if (!lease_ || lease_.pool()->size() < threads) {
      lease_ = threading::global_pool_registry().acquire(threads);
    }
    return lease_.pool();
  }

  util::cvec buf_[2];
  threading::PoolLease lease_;
  threading::ThreadPool* borrowed_pool_ = nullptr;
};

}  // namespace spiral::backend
