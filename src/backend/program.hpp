// Executable FFT program: a fused stage list plus an execution policy.
// This is the runtime equivalent of the C code Spiral emits — stage
// boundaries correspond to the barriers between parallel loops in the
// generated program.
//
// Threading contract: a Program is immutable after construction (modulo
// set_pool, see below). All per-execution state — scratch buffers and the
// worker team — lives in an ExecContext, so `execute(ctx, x, y)` may be
// called from many client threads concurrently as long as each brings its
// own context. The context-free `execute(x, y)` overload keeps the old
// single-caller convenience API: it routes through one internal context
// and is therefore NOT safe for concurrent calls on the same Program.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "backend/exec_context.hpp"
#include "backend/simd.hpp"
#include "backend/stage.hpp"
#include "threading/thread_pool.hpp"

namespace spiral::backend {

/// How parallel stages are dispatched.
enum class ExecPolicy {
  kSequential,  ///< ignore parallel annotations, run on the caller
  /// Fused single-fork dispatch on the persistent pool: the whole stage
  /// list runs inside one ThreadPool::run; workers cross one spin barrier
  /// per stage transition (the "low-latency minimal overhead
  /// synchronization" of §3.2). The default parallel policy.
  kThreadPool,
  /// Ablation knob: the pre-fused executor — a full pool fork/join (two
  /// barrier crossings + a std::function dispatch) per stage. Kept so the
  /// paper's per-stage overhead numbers stay reproducible
  /// (bench_executor).
  kThreadPoolPerStage,
  kOpenMP,  ///< OpenMP parallel-for per stage (compiled in when available)
  /// Natively compiled executor installed by the JIT subsystem
  /// (install_jit): the stage list was emitted as C, compiled and
  /// dlopen'd, and execute() calls straight into the shared object. The
  /// fused interpreter remains the fallback — before a function is
  /// installed, after a runtime parity demotion, and for embedders that
  /// never JIT.
  kJit,
};

[[nodiscard]] const char* to_string(ExecPolicy p);

/// True when the library was built with OpenMP support.
[[nodiscard]] bool openmp_available();

/// Mutation-testing hook (spiral-lint --mutate-pingpong): when enabled,
/// the interpreter walks the stage list in the wrong (left-to-right)
/// direction, applying the composition y = S_0 ... S_{k-1} x in reversed
/// stage order. The static verifier cannot see this defect — every stage
/// is still individually well-formed — so the lint execution-parity check
/// must catch it. Never enable outside mutation tests.
void set_pingpong_mutation(bool enabled) noexcept;
[[nodiscard]] bool pingpong_mutation() noexcept;

class Program {
 public:
  /// Takes ownership of the (fused) stage list. `pool` may be null; it is
  /// borrowed, not owned, and — when set — overrides each context's own
  /// team (legacy single-caller path).
  Program(StageList stages, ExecPolicy policy,
          threading::ThreadPool* pool = nullptr);

  /// y = program(x) using the caller-supplied context. Out-of-place;
  /// x == y is supported via an extra copy. Buffers must hold size()
  /// elements. Safe to call concurrently with distinct contexts; a single
  /// context must not be shared by concurrent callers.
  void execute(ExecContext& ctx, const cplx* x, cplx* y) const;

  /// Convenience overload over an internal context (single-caller only).
  void execute(const cplx* x, cplx* y) { execute(self_ctx_, x, y); }

  /// Re-points the borrowed pool (e.g. a per-call thread team, as the
  /// FFTW-like baseline uses). Only meaningful with kThreadPool policy;
  /// affects every context executed against this program, so only use it
  /// from single-caller code.
  void set_pool(threading::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Builds per-stage SIMD execution plans at widths up to `nu`
  /// (backend/simd): stages whose fused index maps prove a short-vector
  /// shape run through the lane-batched vector drivers, the rest stay on
  /// the scalar codelets. A no-op when the host ISA is unavailable or
  /// forced off (SPIRAL_SIMD=OFF). Call once, before the program is
  /// shared across threads — it mutates the (otherwise immutable) plan
  /// state.
  void enable_simd(idx_t nu);

  /// True when at least one stage will execute through a vector driver.
  [[nodiscard]] bool simd_active() const noexcept { return simd_on_; }
  /// Per-stage SIMD plans (empty unless enable_simd found work).
  [[nodiscard]] const std::vector<simd::StagePlan>& simd_plans()
      const noexcept {
    return simd_plans_;
  }

  [[nodiscard]] idx_t size() const noexcept { return list_.n; }
  [[nodiscard]] const StageList& stages() const noexcept { return list_; }
  [[nodiscard]] ExecPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] double flops() const { return list_.flops(); }
  /// Largest parallel_p over all stages (worker-team size a context
  /// needs); 1 for fully sequential programs.
  [[nodiscard]] int max_parallelism() const noexcept { return max_p_; }

  /// Native executor signature (the JIT ABI's exec entry): interleaved
  /// complex viewed as doubles, with caller-provided ping-pong scratch.
  using JitFn =
      std::function<void(const double* x, double* y, double* b0, double* b1)>;

  /// Installs a natively compiled executor and switches the policy to
  /// kJit. With `verify_first` the first execution is parity-checked
  /// against the interpreter: on mismatch the result handed to the caller
  /// is the interpreter's, the program demotes itself permanently back to
  /// the interpreter, and jit_runtime_diag() explains why. Call at most
  /// once, before the program is shared across threads.
  void install_jit(JitFn fn, bool verify_first);

  /// A native executor has been installed (it may have been demoted).
  [[nodiscard]] bool jit_installed() const noexcept {
    return static_cast<bool>(jit_fn_);
  }
  /// The native executor is installed and serving executions (not
  /// demoted by the first-execution parity gate).
  [[nodiscard]] bool jit_active() const noexcept {
    return jit_installed() &&
           jit_state_.load(std::memory_order_acquire) != kJitDemoted;
  }
  /// Diagnostic of a runtime demotion ("" while the JIT is healthy).
  [[nodiscard]] std::string jit_runtime_diag() const;

 private:
  // First-execution parity-gate states.
  static constexpr int kJitUnchecked = 0;
  static constexpr int kJitVerified = 1;
  static constexpr int kJitDemoted = 2;

  void run_stage(const Stage& s, const simd::StagePlan* sp, const cplx* src,
                 cplx* dst, threading::ThreadPool* pool) const;
  /// SIMD plan for stage index k, null when the stage runs scalar.
  [[nodiscard]] const simd::StagePlan* simd_plan_for(std::size_t k) const {
    if (simd_plans_.empty() || !simd_plans_[k].active) return nullptr;
    return &simd_plans_[k];
  }
  /// Fused dispatch: one pool fork for the whole stage list; workers
  /// synchronize between stages on the team's own barrier and keep
  /// the ping-pong buffer pointers thread-local.
  void execute_fused(ExecContext& ctx, const cplx* x, cplx* y,
                     threading::ThreadPool* pool) const;
  /// The interpreter walk (either fused-pool or per-stage, by policy).
  void execute_interp(ExecContext& ctx, const cplx* x, cplx* y) const;
  /// The native executor, including the first-execution parity gate.
  void execute_jit(ExecContext& ctx, const cplx* x, cplx* y) const;
  void jit_call(const cplx* x, cplx* y, ExecContext& ctx) const;

  StageList list_;
  ExecPolicy policy_;
  threading::ThreadPool* pool_;
  int max_p_ = 1;
  std::vector<simd::StagePlan> simd_plans_;  // one per stage when enabled
  bool simd_on_ = false;
  ExecContext self_ctx_;  // backs the context-free execute()

  JitFn jit_fn_;
  bool jit_verify_first_ = true;
  mutable std::atomic<int> jit_state_{kJitUnchecked};
  mutable std::mutex jit_gate_;   // serializes the parity-gate execution
  mutable std::string jit_diag_;  // guarded by jit_gate_
};

}  // namespace spiral::backend
