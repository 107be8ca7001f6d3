#include "mirror.hpp"

#include <chrono>
#include <cstdlib>

#include "analysis/codegen_check.hpp"
#include "analysis/verify.hpp"
#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "core/spiral_fft.hpp"
#include "jit/jit.hpp"
#include "machine/config.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "rewrite/smp_rules.hpp"
#include "rewrite/vec_rules.hpp"
#include "search/cost.hpp"
#include "search/search.hpp"

namespace perfbench {

namespace sp = spiral;
using sp::idx_t;

namespace {

using MsClock = std::chrono::steady_clock;

double ms_since(MsClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(MsClock::now() - t0).count();
}

/// Most balanced Cooley-Tukey split m of n with p*mu | m and p*mu | n/m
/// (the planner's rule for formula (14)), 0 if none.
idx_t admissible_split(idx_t n, idx_t p, idx_t mu) {
  idx_t best = 0;
  int best_gap = 1 << 30;
  for (idx_t m : sp::rewrite::possible_splits(n)) {
    if (m % (p * mu) != 0 || (n / m) % (p * mu) != 0) continue;
    const int gap =
        std::abs(sp::util::log2_floor(m) - sp::util::log2_floor(n / m));
    if (best == 0 || gap < best_gap) {
      best = m;
      best_gap = gap;
    }
  }
  return best;
}

}  // namespace

std::unique_ptr<sp::core::FftPlan> plan_request(
    const PlanRequest& req, Tracer& tracer, sp::wisdom::PlanDescriptor* desc) {
  if (req.batch > 0) {
    auto s = tracer.span("core.plan_batch_dft");
    return sp::core::plan_batch_dft(req.n, req.batch, req.opt, desc);
  }
  auto s = tracer.span("core.plan_dft");
  return sp::core::plan_dft(req.n, req.opt, desc);
}

const std::vector<std::string>& mirror_phase_spans() {
  static const std::vector<std::string> names = {
      "rewrite.derive_multicore_ct", "rewrite.parallelize",
      "rewrite.expand_dfts",         "rewrite.vectorize",
      "rewrite.vectorize_parallel_blocks", "backend.lower_fused",
      "analysis.verify",             "backend.program",
      "backend.enable_simd",         "jit.compile_program"};
  return names;
}

MirrorResult mirror_plan(const PlanRequest& req, Tracer& tracer,
                         const sp::wisdom::RuleTreeMap* replay) {
  const auto& opt = req.opt;
  const idx_t p = opt.threads;
  const idx_t mu = opt.cache_line_complex;
  const idx_t nu = opt.vector_nu;
  MirrorResult out;

  // The chooser the planner builds (core/spiral_fft.cpp make_chooser),
  // recording its decisions.
  std::shared_ptr<sp::search::DpSearch> dp;
  if (opt.autotune && replay == nullptr) {
    sp::search::CostFn model;
    if (opt.model_prune_k >= 1) {
      model = sp::search::locality_model_cost(
          sp::machine::generic_config(1, mu));
    }
    dp = std::make_shared<sp::search::DpSearch>(
        sp::search::walltime_cost(), opt.leaf, std::move(model),
        opt.model_prune_k);
  }
  const idx_t leaf = opt.leaf;
  sp::rewrite::RuleTreeChooser chooser = [&, leaf](idx_t sz) {
    auto s = tracer.span("search.choose");
    sp::rewrite::RuleTreePtr tree;
    if (replay != nullptr) {
      auto it = replay->find(sz);
      tree = it != replay->end() ? it->second
                                 : sp::rewrite::balanced_ruletree(sz, leaf);
    } else if (dp) {
      const sp::search::SearchResult r = dp->best(sz);
      out.timed_evals += r.evaluations;
      out.model_evals += r.model_evaluations;
      tree = r.tree;
    } else {
      tree = sp::rewrite::balanced_ruletree(sz, leaf);
    }
    out.trees[sz] = tree;
    return tree;
  };
  auto expand = [&](const sp::spl::FormulaPtr& f) {
    auto s = tracer.span("rewrite.expand_dfts");
    return sp::rewrite::expand_dfts(f, chooser, leaf);
  };

  // Formula: core/spiral_fft.cpp planner_formula_with / build_batch_dft.
  sp::spl::FormulaPtr f;
  if (req.batch > 0) {
    f = sp::spl::Builder::tensor(sp::spl::I(req.batch),
                                 sp::spl::DFT(req.n, opt.direction));
    if (p > 1) {
      auto s = tracer.span("rewrite.parallelize");
      auto g = sp::rewrite::parallelize(f, p, mu);
      if (!sp::spl::has_smp_tag(g)) f = g;
    }
    f = expand(f);
  } else {
    const idx_t m = p > 1 ? admissible_split(req.n, p, mu) : 0;
    if (m != 0) {
      {
        auto s = tracer.span("rewrite.derive_multicore_ct");
        f = sp::rewrite::derive_multicore_ct(req.n, m, p, mu, nullptr,
                                             opt.direction);
      }
      f = expand(f);
      if (nu >= 2 && mu % nu == 0) {
        auto s = tracer.span("rewrite.vectorize_parallel_blocks");
        f = sp::rewrite::vectorize_parallel_blocks(f, nu);
      }
    } else {
      if (nu >= 2) {
        sp::spl::FormulaPtr g;
        {
          auto s = tracer.span("rewrite.vectorize");
          g = sp::rewrite::vectorize(sp::spl::DFT(req.n, opt.direction), nu);
        }
        if (!sp::spl::has_vec_tag(g)) f = expand(g);
      }
      if (!f) {
        f = req.n <= leaf ? sp::spl::DFT(req.n, opt.direction)
                          : expand(sp::spl::DFT(req.n, opt.direction));
      }
    }
  }

  sp::backend::StageList list;
  {
    auto s = tracer.span("backend.lower_fused");
    list = sp::backend::lower_fused(f);
  }
  double verify_ms = 0.0;
  if (opt.verify_lowering) {
    const auto t0 = MsClock::now();
    auto s = tracer.span("analysis.verify");
    sp::analysis::Options vo;
    vo.mu = mu;
    if (!sp::analysis::verify(list, vo).clean()) {
      throw std::logic_error("mirror: lowered program failed verification");
    }
    verify_ms = ms_since(t0);
  }
  out.fingerprint = sp::jit::program_fingerprint(list);
  std::unique_ptr<sp::backend::Program> prog;
  {
    auto s = tracer.span("backend.program");
    prog = std::make_unique<sp::backend::Program>(std::move(list), opt.policy);
  }
  if (nu >= 2) {
    auto s = tracer.span("backend.enable_simd");
    prog->enable_simd(nu);
  }

  if (opt.jit || opt.policy == sp::backend::ExecPolicy::kJit) {
    sp::jit::Options jopt = opt.jit_options;
    if (nu >= 2) jopt.simd_nu = nu;
    // The emission and validation compile_program performs internally,
    // repeated outside it so their cost shows separately.
    sp::backend::CodegenOptions cg;
    cg.function_name = "spiral_jit_entry";
    cg.jit_abi = true;
    cg.fingerprint = out.fingerprint;
    cg.threading = prog->max_parallelism() > 1
                       ? sp::backend::CodegenThreading::kPthreadsPool
                       : sp::backend::CodegenThreading::kNone;
    cg.simd_nu = jopt.simd_nu;
    std::string source;
    const auto t_emit = MsClock::now();
    {
      auto s = tracer.span("backend.emit_c");
      source = sp::backend::emit_c(prog->stages(), cg);
    }
    tracer.add("backend.emit_c_bytes", static_cast<double>(source.size()));
    if (jopt.validate_codegen) {
      auto s = tracer.span("analysis.check_codegen");
      sp::analysis::CodegenCheckOptions cko;
      cko.expect_fingerprint = out.fingerprint;
      cko.expect_simd_nu = jopt.simd_nu;
      cko.entry_name = cg.function_name;
      if (!sp::analysis::check_codegen(source, prog->stages(), cko).clean()) {
        throw std::logic_error("mirror: emitted C failed validation");
      }
    }
    const double emit_check_ms = ms_since(t_emit);
    const auto t_cc = MsClock::now();
    {
      auto s = tracer.span("jit.compile_program");
      out.jit_ok = sp::jit::compile_program(prog->stages(), jopt).ok();
    }
    out.cc_ms = ms_since(t_cc) - emit_check_ms - verify_ms;
  }
  return out;
}

}  // namespace perfbench
