// Tests for the thread pool and barriers: correctness of synchronization,
// task distribution, reuse across many dispatches (the "thread pooling"
// behaviour the generated code relies on), parking of idle teams — and
// the PoolRegistry that shares warm teams across plans, contexts and
// client threads.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "backend/exec_context.hpp"
#include "core/spiral_fft.hpp"
#include "threading/barrier.hpp"
#include "threading/pool_registry.hpp"
#include "threading/thread_pool.hpp"
#include "util/rng.hpp"

namespace spiral::threading {
namespace {

TEST(Barrier, SpinBarrierSynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<int> observed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counter.fetch_add(1);
        barrier.wait();
        // After the barrier, all kThreads increments of this phase are
        // visible.
        const int c = counter.load();
        EXPECT_GE(c, (phase + 1) * kThreads);
        barrier.wait();
      }
      observed[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), kThreads * kPhases);
  EXPECT_EQ(std::accumulate(observed.begin(), observed.end(), 0), kThreads);
}

TEST(Barrier, SpinBarrierHotAtomicsArePadded) {
  // remaining_ (hammered by fetch_sub on arrival) and generation_ (spun
  // on by every waiter) must live on different cache lines, else every
  // arrival invalidates every spinner — false sharing inside the very
  // primitive that exists to make synchronization cheap. The alignas
  // padding makes the object span at least two destructive-interference
  // blocks.
  EXPECT_GE(sizeof(SpinBarrier), 2 * kDestructiveInterferenceSize);
  EXPECT_GE(alignof(SpinBarrier), kDestructiveInterferenceSize);
  EXPECT_GE(kDestructiveInterferenceSize, 64u);
}

TEST(Barrier, CondVarBarrierSynchronizesPhases) {
  constexpr int kThreads = 3;
  constexpr int kPhases = 20;
  CondVarBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counter.fetch_add(1);
        barrier.wait();
        EXPECT_GE(counter.load(), (phase + 1) * kThreads);
        barrier.wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), kThreads * kPhases);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.run([&](int task) {
    EXPECT_EQ(task, 0);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int task) { hits[size_t(task)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveDispatches) {
  // The pool must be reusable thousands of times (one FFT = several
  // dispatches; plans are executed repeatedly).
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 2000; ++rep) {
    pool.run([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 3L * 2000);
}

TEST(ThreadPool, TasksSeeDistinctIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s.store(0);
  pool.run([&](int task) { seen[size_t(task)].store(task + 1); });
  for (int t = 0; t < 4; ++t) EXPECT_EQ(seen[size_t(t)].load(), t + 1);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  constexpr idx_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(kCount, [&](idx_t i) { hits[size_t(i)].fetch_add(1); });
  for (idx_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[size_t(i)].load(), 1) << "iteration " << i;
  }
}

TEST(ThreadPool, ParallelForSmallCountsDegradeGracefully) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  pool.parallel_for(1, [&](idx_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 1);
  runs = 0;
  pool.parallel_for(0, [&](idx_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 0);
}

TEST(ThreadPool, ParallelForUsesContiguousChunks) {
  // Rule (7) semantics: consecutive iterations belong to one task.
  ThreadPool pool(2);
  constexpr idx_t kCount = 64;
  std::vector<int> owner(kCount, -1);
  // parallel_for doesn't expose the task id; reconstruct by thread id.
  std::mutex m;
  std::map<std::thread::id, int> ids;
  pool.parallel_for(kCount, [&](idx_t i) {
    std::lock_guard<std::mutex> lock(m);
    auto [it, _] = ids.emplace(std::this_thread::get_id(),
                               static_cast<int>(ids.size()));
    owner[size_t(i)] = it->second;
  });
  // Each owner's iteration set is one contiguous range.
  std::map<int, std::pair<idx_t, idx_t>> range;  // owner -> [min, max]
  for (idx_t i = 0; i < kCount; ++i) {
    auto [it, inserted] = range.emplace(owner[size_t(i)], std::pair{i, i});
    if (!inserted) {
      it->second.first = std::min(it->second.first, i);
      it->second.second = std::max(it->second.second, i);
    }
  }
  idx_t covered = 0;
  for (const auto& [o, r] : range) covered += r.second - r.first + 1;
  EXPECT_EQ(covered, kCount) << "ownership ranges overlap: non-contiguous";
}

TEST(ThreadPool, DestructionWithNoWorkIsClean) {
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
  }
  SUCCEED();
}

// --- Parking: idle teams sleep in the barrier instead of spinning. ---

namespace {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process CPU-seconds per wall-second over a 300 ms sleep, taken after
/// the spin window has passed.
double idle_cores() {
  std::this_thread::sleep_for(SpinBarrier::kSpinWindow +
                              std::chrono::milliseconds(100));
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return (process_cpu_seconds() - cpu0) / wall;
}

}  // namespace

TEST(Parking, IdlePoolBurnsNoCpu) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  pool.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_LT(idle_cores(), 0.2) << "idle workers must park, not spin";
}

TEST(Parking, ThreadLocalContextOfDestroyedPlanBurnsNoCpu) {
  // The context-free execute(x, y) leases a team into a thread-local
  // context that outlives the plan; that team must park too.
  {
    core::PlannerOptions opt;
    opt.threads = 4;
    const auto plan = core::plan_dft(1024, opt);
    util::Rng rng(0x1d1e);
    const util::cvec x = rng.complex_signal(plan->size());
    util::cvec y(x.size());
    plan->execute(x.data(), y.data());
  }
  EXPECT_LT(idle_cores(), 0.2) << "a leased idle team must park";
}

TEST(Parking, WakesAcrossTheSpinWindow) {
  // Dispatches separated by no sleep (hot spin), half the spin window
  // (yield phase) and twice the window (parked): every call must run all
  // tasks, and the tasks' own barrier crossing must order their writes.
  // The long gaps come every 500 calls to keep the test short.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> slot(kThreads);
  for (int rep = 0; rep < 2000; ++rep) {
    if (rep % 500 == 250) {
      std::this_thread::sleep_for(SpinBarrier::kSpinWindow / 2);
    } else if (rep % 500 == 499) {
      std::this_thread::sleep_for(SpinBarrier::kSpinWindow * 2);
    }
    std::atomic<long> sum{0};
    std::atomic<int> mismatches{0};
    pool.run([&](int task) {
      slot[size_t(task)].store(rep, std::memory_order_relaxed);
      sum.fetch_add(long(rep) * kThreads + task + 1,
                    std::memory_order_relaxed);
      pool.barrier().wait();
      for (const auto& v : slot) {
        if (v.load(std::memory_order_relaxed) != rep) mismatches.fetch_add(1);
      }
    });
    ASSERT_EQ(sum.load(), long(rep) * kThreads * kThreads +
                              kThreads * (kThreads + 1) / 2)
        << "call " << rep;
    ASSERT_EQ(mismatches.load(), 0) << "call " << rep;
  }
}

TEST(Parking, ParkedPoolShutsDownPromptly) {
  auto pool = std::make_unique<ThreadPool>(4);
  pool->run([](int) {});
  std::this_thread::sleep_for(SpinBarrier::kSpinWindow +
                              std::chrono::milliseconds(100));  // parked
  const auto t0 = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
      << "destroying a parked pool must wake and join its workers";
}

TEST(Parking, PlanningKeepsTeamsAwake) {
  // A plan that takes longer than the spin window (a JIT compile) must
  // not leave its team parked for the execute that follows; once
  // planning has been over for the window, the team parks.
  ThreadPool pool(2);
  pool.run([](int) {});
  {
    const KeepTeamsWarm planning;
    std::this_thread::sleep_for(SpinBarrier::kSpinWindow * 2);
    EXPECT_EQ(pool.barrier().sleepers(), 0) << "parked while planning";
  }
  std::this_thread::sleep_for(SpinBarrier::kSpinWindow * 2 +
                              std::chrono::milliseconds(100));
  EXPECT_EQ(pool.barrier().sleepers(), 1) << "still awake after planning";
}

TEST(PoolRegistry, ReacquiringSameSizeSpawnsNoThreads) {
  auto& reg = global_pool_registry();
  reg.trim();
  reg.reset_stats();
  {
    PoolLease a = reg.acquire(3);
    ASSERT_TRUE(a);
    EXPECT_EQ(a.pool()->size(), 3);
  }  // returned to the idle list
  EXPECT_EQ(reg.idle_count(), 1u);
  const auto before = ThreadPool::threads_spawned();
  PoolLease b = reg.acquire(3);
  ASSERT_TRUE(b);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "reuse of a returned pool must not spawn threads";
  const auto st = reg.stats();
  EXPECT_EQ(st.acquires, 2u);
  EXPECT_EQ(st.created, 1u);
  EXPECT_EQ(st.reuses, 1u);
}

TEST(PoolRegistry, ExactSizeKeying) {
  auto& reg = global_pool_registry();
  reg.trim();
  { PoolLease a = reg.acquire(2); }
  // A different participant count cannot reuse the idle team: barrier
  // participant counts are baked in at construction.
  const auto before = ThreadPool::threads_spawned();
  PoolLease b = reg.acquire(4);
  EXPECT_EQ(b.pool()->size(), 4);
  EXPECT_GT(ThreadPool::threads_spawned(), before);
}

TEST(PoolRegistry, ConcurrentLeasesAreDistinctPools) {
  auto& reg = global_pool_registry();
  reg.trim();
  PoolLease a = reg.acquire(2);
  PoolLease b = reg.acquire(2);  // a is still held: must not be shared
  EXPECT_NE(a.pool(), b.pool());
  std::atomic<int> hits{0};
  a.pool()->run([&](int) { hits.fetch_add(1); });
  b.pool()->run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

// --- Shared-pool semantics through the plan/context layer (the refactor
// that made ExecContext lease rather than own its team). ---

namespace {

core::PlannerOptions parallel_opts(int threads) {
  core::PlannerOptions opt;
  opt.threads = threads;
  return opt;
}

util::cvec run_plan(const core::FftPlan& plan, backend::ExecContext& ctx,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  const util::cvec x = rng.complex_signal(plan.size());
  util::cvec y(x.size());
  plan.execute(ctx, x.data(), y.data());
  return y;
}

}  // namespace

TEST(PoolSharing, SecondPlanOnSameContextSpawnsZeroThreads) {
  global_pool_registry().trim();
  backend::ExecContext ctx;
  const auto p1 = core::plan_dft(256, parallel_opts(2));
  run_plan(*p1, ctx, 0xaa);  // first parallel execute: lease acquired
  const auto before = ThreadPool::threads_spawned();
  const auto p2 = core::plan_dft(512, parallel_opts(2));
  run_plan(*p2, ctx, 0xbb);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "a second plan on the same context must borrow the leased team";
}

TEST(PoolSharing, PlanDestructionLeavesBorrowedPoolUsable) {
  global_pool_registry().trim();
  backend::ExecContext ctx;
  {
    const auto p1 = core::plan_dft(256, parallel_opts(2));
    run_plan(*p1, ctx, 0xcc);
  }  // plan gone; the team is the context's lease, not the plan's
  const auto before = ThreadPool::threads_spawned();
  const auto p2 = core::plan_dft(256, parallel_opts(2));
  const util::cvec y = run_plan(*p2, ctx, 0xdd);
  EXPECT_EQ(ThreadPool::threads_spawned(), before);
  EXPECT_EQ(y.size(), 256u);

  // Returning the lease and bringing a FRESH context must also pick the
  // warm team back up without spawning: the registry, not any context,
  // owns pool lifetime.
  ctx.reset();
  backend::ExecContext ctx2;
  run_plan(*p2, ctx2, 0xee);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "a fresh context must reuse the returned warm team";
}

}  // namespace
}  // namespace spiral::threading
