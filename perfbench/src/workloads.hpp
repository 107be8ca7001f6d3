// The three benchmark workloads. Each runs its set-up (timed), its timed
// phase, the output checks and the idle window, and fills a Result with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, --trace 1).
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

Result run_exec_p4(const RunOptions& opt);
Result run_service_stream(const RunOptions& opt);
Result run_planner_cold(const RunOptions& opt);

/// The idle window after the timed phase: slices x seconds.
inline constexpr int kIdleSlices = 5;
inline constexpr double kIdleSliceS = 0.4;

/// Process-wide counters sampled at start-up, for the deltas the traced
/// run reports (pools created, threads spawned, JIT compiles).
struct CounterBase {
  std::uint64_t pools_created = 0;
  std::uint64_t threads_spawned = 0;
};
[[nodiscard]] CounterBase counter_base();

/// Reports idle_cpu_cores and peak_rss_mib (untraced run) or the pool
/// and thread deltas since `base` (traced run).
void finish_run(const RunOptions& opt, const CounterBase& base, Result& r);

/// Reports trace.overhead_pct from the plain and traced throughputs.
void report_trace_overhead(double untraced_rps, double traced_rps, Result& r);

}  // namespace perfbench
