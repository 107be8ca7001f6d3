// Plan requests, and the traced mirror of the planner.
//
// plan_request() plans through the library's public entry points
// (core::plan_dft / core::plan_batch_dft), as any user does. The traced
// run additionally replays the planner's pipeline one public function at
// a time — derive_multicore_ct, expand_dfts with the search chooser,
// vectorize_parallel_blocks, lower_fused, analysis::verify,
// Program::enable_simd, emit_c, check_codegen, jit::compile_program —
// each inside its own span, so plan time splits by module. The mirror is
// only trusted when it reproduces the planner's StageList (compared by
// jit::program_fingerprint).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/spiral_fft.hpp"
#include "trace.hpp"
#include "wisdom/descriptor.hpp"

namespace perfbench {

struct PlanRequest {
  std::string kind;   ///< stable label, e.g. "dft-n4096-p4"
  spiral::idx_t n = 0;
  spiral::idx_t batch = 0;  ///< 0: DFT_n; else batch DFT_n's
  spiral::core::PlannerOptions opt;

  /// Elements of the plan's input and output vectors.
  [[nodiscard]] spiral::idx_t elems() const { return batch > 0 ? n * batch : n; }
};

/// Plans `req` through the public entry point inside a core.plan_* span.
[[nodiscard]] std::unique_ptr<spiral::core::FftPlan> plan_request(
    const PlanRequest& req, Tracer& tracer,
    spiral::wisdom::PlanDescriptor* desc = nullptr);

struct MirrorResult {
  std::uint64_t fingerprint = 0;
  spiral::wisdom::RuleTreeMap trees;  ///< the chooser's decisions
  int timed_evals = 0;                ///< DpSearch cost evaluations
  int model_evals = 0;                ///< DpSearch model evaluations
  bool jit_ok = false;                ///< compile_program returned a module
  /// Compiler plus dlopen: compile_program's time minus the verify,
  /// emit_c and check_codegen it repeats internally (derived; 0 without
  /// JIT).
  double cc_ms = 0.0;
};

/// Replays the planner for `req` with spans around every public call.
/// With `replay` the chooser returns the given trees instead of
/// searching (used to re-check a mirror whose autotuner chose
/// differently from the planner's).
[[nodiscard]] MirrorResult mirror_plan(
    const PlanRequest& req, Tracer& tracer,
    const spiral::wisdom::RuleTreeMap* replay = nullptr);

/// Span names whose durations partition the mirrored pipeline (the
/// diagnostic emit_c / check_codegen spans repeat work compile_program
/// does internally and are excluded).
[[nodiscard]] const std::vector<std::string>& mirror_phase_spans();

}  // namespace perfbench
