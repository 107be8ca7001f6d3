// Per-layer probes of the traced run: each measures one module's share
// of a workload's plans by calling that module's public functions alone.
#pragma once

#include <string>
#include <vector>

#include "backend/exec_context.hpp"
#include "common.hpp"
#include "core/spiral_fft.hpp"
#include "trace.hpp"

namespace perfbench {

/// One plan of the workload, with its sequential twin for the speed-up.
struct ProbeTarget {
  std::string kind;  ///< per-kind detail suffix, e.g. "n4096"
  bool large = false;  ///< member of the workload's large size class
  const spiral::core::FftPlan* plan = nullptr;
  const spiral::core::FftPlan* plan_p1 = nullptr;
  idx_t n = 0;      ///< transform size
  idx_t batch = 1;  ///< transforms per execution
  idx_t nu = 0;     ///< the plan's SIMD width
  int p = 1;        ///< the plan's thread count
};

/// Median single-call time of plan->execute(ctx, ...) in microseconds,
/// over about `budget_s` of calls after a short warm-up.
[[nodiscard]] double median_exec_us(const spiral::core::FftPlan& plan,
                                    spiral::backend::ExecContext& ctx,
                                    const cvec& x, cvec& y,
                                    double budget_s = 0.04);

/// threading.dispatch_us and threading.barrier_us for a team of `team`
/// participants. Returns ctx's team to the registry first so the probe
/// reuses it instead of oversubscribing the cores.
void probe_team(int team, spiral::backend::ExecContext& ctx, Result& r);

/// threading / backend / analysis metrics over the workload's plans.
void probe_plans(const std::vector<ProbeTarget>& targets,
                 spiral::backend::ExecContext& ctx, std::uint64_t seed,
                 double fma_gflops, Result& r);

/// host.fma_gflops, host.l1_gbs and host.l2_gbs; returns the FMA peak.
double probe_host(Result& r);

struct PlanRequest;

/// Plans every request through the public entry point and through the
/// traced mirror, checks that both yield the same StageList, and reports
/// the plan-time metrics (per planned request) of rewrite, search,
/// backend, analysis, jit and core. A mismatch is a failed operation.
void probe_planning(const std::vector<PlanRequest>& requests, Tracer& tracer,
                    Result& r);

}  // namespace perfbench
