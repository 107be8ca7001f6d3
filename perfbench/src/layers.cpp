#include "layers.hpp"

#include "analysis/locality.hpp"
#include "backend/program.hpp"
#include "host.hpp"
#include "jit/jit.hpp"
#include "machine/config.hpp"
#include "mirror.hpp"
#include "threading/pool_registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sp = spiral;

double median_exec_us(const sp::core::FftPlan& plan,
                      sp::backend::ExecContext& ctx, const cvec& x, cvec& y,
                      double budget_s) {
  for (int i = 0; i < 3; ++i) plan.execute(ctx, x.data(), y.data());
  std::vector<double> t;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(budget_s));
  while (t.size() < 11 || (Clock::now() < end && t.size() < 20000)) {
    const auto t0 = Clock::now();
    plan.execute(ctx, x.data(), y.data());
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(t);
}

namespace {

double median_program_us(const sp::backend::Program& prog,
                         sp::backend::ExecContext& ctx, const cvec& x,
                         cvec& y) {
  for (int i = 0; i < 3; ++i) prog.execute(ctx, x.data(), y.data());
  std::vector<double> t;
  const auto end = Clock::now() + std::chrono::milliseconds(20);
  while (t.size() < 11 || (Clock::now() < end && t.size() < 20000)) {
    const auto t0 = Clock::now();
    prog.execute(ctx, x.data(), y.data());
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(t);
}

/// Bytes one execution moves by the program's own description: every
/// stage reads and writes each element once (16 B), reads its fused
/// scale tables (16 B/entry) and its materialized index maps (4 B/entry).
double computed_bytes(const sp::backend::StageList& list) {
  double b = 0.0;
  for (const auto& s : list.stages) {
    b += 2.0 * 16.0 * static_cast<double>(s.total_elems());
    b += 16.0 * static_cast<double>(s.in_scale.size() + s.out_scale.size());
    b += 4.0 * static_cast<double>(s.in_map.size() + s.out_map.size());
  }
  return b;
}

}  // namespace

void probe_team(int team, sp::backend::ExecContext& ctx, Result& r) {
  ctx.reset();
  auto lease = sp::threading::global_pool_registry().acquire(team);
  sp::threading::ThreadPool& pool = *lease.pool();
  const std::function<void(int)> empty = [](int) {};
  for (int i = 0; i < 100; ++i) pool.run(empty);
  std::vector<double> d;
  for (int i = 0; i < 20000; ++i) {
    const auto t0 = Clock::now();
    pool.run(empty);
    d.push_back(us_between(t0, Clock::now()));
  }
  r.set("threading.dispatch_us", median(d), "us");

  sp::threading::SpinBarrier barrier(team);
  constexpr int kCrossings = 20000;
  std::vector<double> b;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    pool.run([&](int) {
      for (int i = 0; i < kCrossings; ++i) barrier.wait();
    });
    b.push_back(us_between(t0, Clock::now()) / kCrossings);
  }
  r.set("threading.barrier_us", median(b), "us");
}

void probe_plans(const std::vector<ProbeTarget>& targets,
                 sp::backend::ExecContext& ctx, std::uint64_t seed,
                 double fma, Result& r) {
  sp::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const double dispatch_us = r.metrics.count("threading.dispatch_us")
                                 ? r.metrics.at("threading.dispatch_us").value
                                 : 0.0;
  std::vector<double> exec, exec_p1, stage_sum, bytes, speedup, share,
      crossings, pred, pred_ratio;
  std::vector<double> gflops[2], peak[2];
  for (const ProbeTarget& t : targets) {
    const idx_t elems = t.n * t.batch;
    const cvec x = rng.complex_signal(elems);
    cvec y(x.size());
    const auto& list = t.plan->stages();
    const double us = median_exec_us(*t.plan, ctx, x, y);
    exec.push_back(us);
    r.details["backend.exec_us." + t.kind] = us;
    if (t.plan_p1 != nullptr) {
      const double us1 = median_exec_us(*t.plan_p1, ctx, x, y);
      exec_p1.push_back(us1);
      speedup.push_back(us1 / us);
      r.details["backend.exec_p1_us." + t.kind] = us1;
      r.details["threading.speedup.p" + std::to_string(t.p) + "." + t.kind] =
          us1 / us;
    }
    // Each stage alone, as a one-stage program with the plan's SIMD width.
    double sum = 0.0;
    for (std::size_t k = 0; k < list.stages.size(); ++k) {
      sp::backend::StageList one;
      one.n = list.n;
      one.stages.push_back(list.stages[k]);
      sp::backend::Program prog(std::move(one),
                                sp::backend::ExecPolicy::kThreadPool);
      if (t.nu >= 2) prog.enable_simd(t.nu);
      const double s_us = median_program_us(prog, ctx, x, y);
      r.details["backend.stage_us." + t.kind + ".s" + std::to_string(k)] =
          s_us;
      sum += s_us;
    }
    stage_sum.push_back(sum);
    const double net =
        sum - (t.p > 1 ? dispatch_us * static_cast<double>(list.stages.size())
                       : 0.0);
    share.push_back(1.0 - net / us);
    r.details["threading.sync_share." + t.kind] = 1.0 - net / us;
    const double cross = t.p > 1 ? static_cast<double>(list.stages.size() + 1)
                                 : 0.0;
    crossings.push_back(cross);
    r.details["threading.crossings." + t.kind] = cross;
    const double b = computed_bytes(list);
    bytes.push_back(b);
    r.details["backend.bytes." + t.kind] = b;

    sp::analysis::LocalityOptions lo;
    lo.threads = t.p;
    const auto rep = sp::analysis::analyze_locality(
        list, sp::machine::generic_config(t.p, 4), lo);
    const double p_us = rep.pred_seconds * 1e6;
    pred.push_back(p_us);
    pred_ratio.push_back(p_us / us);
    r.details["analysis.pred_us." + t.kind] = p_us;
    r.details["analysis.pred_ratio." + t.kind] = p_us / us;

    const double gf = static_cast<double>(t.batch) * pseudo_flops(t.n) / us *
                      1e-3;
    gflops[t.large ? 1 : 0].push_back(gf);
    peak[t.large ? 1 : 0].push_back(gf / (t.p * fma));
  }
  r.set("backend.exec_us", geomean(exec), "us");
  r.set("backend.exec_p1_us", geomean(exec_p1), "us");
  r.set("backend.stage_us", geomean(stage_sum), "us");
  r.set("backend.bytes", geomean(bytes), "B");
  r.set("backend.gflops_small", geomean(gflops[0]), "GFlop/s");
  r.set("backend.gflops_large", geomean(gflops[1]), "GFlop/s");
  r.set("backend.peak_frac_small", geomean(peak[0]), "ratio");
  r.set("backend.peak_frac_large", geomean(peak[1]), "ratio");
  r.set("threading.speedup", geomean(speedup), "ratio");
  r.set("threading.sync_share", mean(share), "ratio");
  r.set("threading.crossings", mean(crossings), "count");
  r.set("analysis.pred_us", geomean(pred), "us");
  r.set("analysis.pred_ratio", geomean(pred_ratio), "ratio");
}

double probe_host(Result& r) {
  const HostStamp h = host_stamp();
  const double fma = fma_gflops();
  r.set("host.fma_gflops", fma, "GFlop/s");
  r.set("host.l1_gbs", read_gbs(h.l1d_bytes > 0 ? h.l1d_bytes / 2 : 16384),
        "GB/s");
  r.set("host.l2_gbs", read_gbs(h.l2_bytes > 0 ? h.l2_bytes / 2 : 262144),
        "GB/s");
  return fma;
}

void probe_planning(const std::vector<PlanRequest>& requests, Tracer& tracer,
                    Result& r) {
  const auto jit0 = sp::jit::stats();
  double plan_ms = 0.0, jit_plan_ms = 0.0;
  int jit_requests = 0;
  double cc_ms = 0.0;
  double timed_evals = 0.0, model_evals = 0.0;
  int mismatches = 0;
  // Mirror phase totals before this probe (spans may already exist).
  auto phase_total = [&] {
    double ms = 0.0;
    for (const auto& name : mirror_phase_spans()) ms += tracer.total_ms(name);
    return ms;
  };
  const double phases0 = phase_total();
  std::map<std::string, double> self0;
  for (const auto& [name, t] : tracer.totals()) {
    self0[name] = static_cast<double>(t.self_ns) * 1e-6;
  }

  for (const PlanRequest& req : requests) {
    spiral::wisdom::PlanDescriptor desc;
    const auto t0 = Clock::now();
    std::uint64_t fp = 0;
    try {
      auto plan = plan_request(req, tracer, &desc);
      fp = sp::jit::program_fingerprint(plan->stages());
    } catch (const std::exception&) {
      r.ledger.check(false, "plan-exception");
      continue;
    }
    const double ms = us_between(t0, Clock::now()) * 1e-3;
    plan_ms += ms;
    if (req.opt.jit) {
      jit_plan_ms += ms;
      ++jit_requests;
    }
    MirrorResult m;
    try {
      m = mirror_plan(req, tracer);
    } catch (const std::exception&) {
      r.ledger.check(false, "mirror-exception");
      continue;
    }
    timed_evals += m.timed_evals;
    cc_ms += m.cc_ms;
    model_evals += m.model_evals;
    bool same = m.fingerprint == fp;
    if (!same && req.opt.autotune) {
      // The wall-clock autotuner may pick other trees than the planner
      // did; replay the planner's recorded choices through the mirror.
      Tracer quiet(false);
      same = mirror_plan(req, quiet, &desc.trees).fingerprint == fp;
      r.details["search.tree_disagreements"] += 1.0;
    }
    if (req.opt.jit && !m.jit_ok) r.ledger.check(false, "mirror-jit-fallback");
    if (!same) ++mismatches;
    r.ledger.check(same, "mirror-mismatch");
  }
  const double phases_ms = phase_total() - phases0;
  const double nreq = static_cast<double>(requests.size());
  auto self = [&](const std::string& name) {
    const double before = self0.count(name) ? self0[name] : 0.0;
    return (tracer.self_ms(name) - before) / nreq;
  };
  r.set("core.plan_ms", plan_ms / nreq, "ms");
  r.set("core.plan_other_ms", (plan_ms - phases_ms) / nreq, "ms");
  r.set("rewrite.derive_ms",
        self("rewrite.derive_multicore_ct") + self("rewrite.parallelize"), "ms");
  r.set("rewrite.expand_ms", self("rewrite.expand_dfts"), "ms");
  r.set("rewrite.vectorize_ms",
        self("rewrite.vectorize") + self("rewrite.vectorize_parallel_blocks"),
        "ms");
  r.set("search.dp_ms", self("search.choose"), "ms");
  r.set("search.timed_evals", timed_evals / nreq, "count");
  r.set("search.model_evals", model_evals / nreq, "count");
  r.set("backend.lower_ms", self("backend.lower_fused"), "ms");
  r.set("backend.program_ms", self("backend.program"), "ms");
  r.set("backend.simd_plan_ms", self("backend.enable_simd"), "ms");
  r.set("backend.emit_c_ms", self("backend.emit_c"), "ms");
  r.set("backend.emit_c_kib", tracer.counter("backend.emit_c_bytes") / 1024.0 / nreq,
        "KiB");
  r.set("analysis.verify_ms", self("analysis.verify"), "ms");
  r.set("analysis.codegen_check_ms", self("analysis.check_codegen"), "ms");
  r.set("jit.cc_ms", jit_requests > 0 ? cc_ms / jit_requests : 0.0, "ms");
  r.set("jit.plan_ms", jit_requests > 0 ? jit_plan_ms / jit_requests : 0.0,
        "ms");
  r.set("jit.compiles",
        static_cast<double>(sp::jit::stats().compiles - jit0.compiles), "count");
  r.set("trace.mirror_mismatches", mismatches, "count");
}

}  // namespace perfbench
