// Barriers for the thread pool.
//
// The paper attributes part of Spiral's parallel win at small sizes to
// "low-latency minimal overhead synchronization" (Section 3.2): when code
// is generated for a fixed N, p and mu, the synchronization between the
// stages of formula (14) can be a busy-wait barrier between p pinned
// threads instead of a general-purpose condition-variable barrier. Both
// implementations are provided; bench/bench_barriers.cpp measures them
// (ablation A2 in DESIGN.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <new>
#include <thread>

#include "util/common.hpp"

namespace spiral::threading {

/// Cache-line size used to pad the barrier's hot atomics apart
/// (std::hardware_destructive_interference_size when the library reports
/// it, the common 64 bytes otherwise).
#if defined(__cpp_lib_hardware_interference_size)
#if defined(__GNUC__) && !defined(__clang__)
// GCC warns that this constant may vary across -mtune flags; the padding
// below only needs a safe upper bound, so the warning is noise here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t kDestructiveInterferenceSize =
    std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
inline constexpr std::size_t kDestructiveInterferenceSize = 64;
#endif

/// Marks the process as planning; core's plan_* entry points hold one.
/// A plan is built to be executed, and waking a parked team costs that
/// execute up to milliseconds on a shared VM, while a plan can take
/// longer than any spin window (a JIT compile: 0.1-4 s).
class KeepTeamsWarm {
 public:
  KeepTeamsWarm() noexcept { open_.fetch_add(1, std::memory_order_relaxed); }
  ~KeepTeamsWarm() { open_.fetch_sub(1, std::memory_order_relaxed); }
  KeepTeamsWarm(const KeepTeamsWarm&) = delete;
  KeepTeamsWarm& operator=(const KeepTeamsWarm&) = delete;

  static bool any_open() noexcept {
    return open_.load(std::memory_order_relaxed) != 0;
  }

 private:
  static inline std::atomic<int> open_{0};
};

/// Centralized generation barrier for a fixed set of participants that
/// spins while the team is busy and parks it when the team goes idle.
/// A waiter passes through three phases:
///
///   1. hot spin: up to kSpinLimit plain loads of the generation word
///      (no pause instruction; a busy team is released within this
///      phase, so a crossing costs no syscall);
///   2. yield: sched_yield between loads until kSpinWindow has passed,
///      which keeps the barrier usable on oversubscribed hosts; a
///      KeepTeamsWarm scope seen open restarts the window;
///   3. park: std::atomic::wait on the 32-bit generation word, which
///      libstdc++ turns into a futex on that very address, so an idle
///      team burns no CPU.
///
/// The last arrival publishes the next generation with a seq_cst store
/// and calls notify_all() only when the barrier's own sleeper count is
/// non-zero. Both the store and the parked waiter's sleeper increment
/// are seq_cst, so either the releaser sees the sleeper or the sleeper
/// sees the new generation: no wake is lost, and a busy release costs
/// one store and one load.
class SpinBarrier {
 public:
  /// How long a waiter spins and yields before it parks: longer than
  /// the gaps between the transforms of a working caller (planning
  /// between executes, a preempted participant), because waking a parked
  /// team is slow, yet short enough that an idle team stops burning CPU
  /// within a fraction of a second (the LLVM OpenMP runtime's default
  /// block time is also 200 ms). On a shared 4-vCPU Xeon VM, a p=4
  /// execute that had to wake its parked team took 0.1-1.6 ms at the
  /// median against 0.02-0.06 ms with a spinning team; with a 2 ms
  /// window, plan-then-execute requests paid that wake and their p90
  /// latency rose 76%.
  static constexpr std::chrono::milliseconds kSpinWindow{200};

  explicit SpinBarrier(int participants)
      : participants_(participants), remaining_(participants) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void wait() {
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arrival: reset and release everyone.
      remaining_.store(participants_, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_seq_cst) != 0) {
        generation_.notify_all();
      }
      return;
    }
    for (int spins = 0; spins < kSpinLimit; ++spins) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
    }
    auto window_start = std::chrono::steady_clock::now();
    for (;;) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      const auto now = std::chrono::steady_clock::now();
      if (KeepTeamsWarm::any_open()) window_start = now;
      if (now - window_start >= kSpinWindow) break;
      std::this_thread::yield();
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    generation_.wait(gen, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Participants parked in wait() right now (for tests).
  [[nodiscard]] int sleepers() const noexcept { return sleepers_.load(); }

 private:
  static constexpr int kSpinLimit = 1 << 12;
  const int participants_;
  // remaining_ is hammered with fetch_sub by every arriving thread while
  // generation_ is spun on by every waiting thread; on one cache line
  // each arrival would invalidate every spinner's line (the very
  // false-sharing effect this paper's Definition 1 bans from generated
  // code — ironic that the first revision of this barrier had the bug
  // itself). Keep them a destructive-interference span apart. sleepers_
  // shares remaining_'s line: only parking waiters write it, and the
  // last arrival, which reads it, already owns that line.
  alignas(kDestructiveInterferenceSize) std::atomic<int> remaining_;
  std::atomic<int> sleepers_{0};
  alignas(kDestructiveInterferenceSize) std::atomic<std::uint32_t>
      generation_{0};
};

/// Classical mutex/condition-variable barrier (the "portable library"
/// flavour whose overhead the paper's generated code avoids).
class CondVarBarrier {
 public:
  explicit CondVarBarrier(int participants) : participants_(participants) {}

  CondVarBarrier(const CondVarBarrier&) = delete;
  CondVarBarrier& operator=(const CondVarBarrier&) = delete;

  void wait() {
    std::unique_lock<std::mutex> lock(m_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
  }

 private:
  const int participants_;
  std::mutex m_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace spiral::threading
