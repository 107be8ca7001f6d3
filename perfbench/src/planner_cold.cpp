// planner-cold: repeated passes over a seeded, shuffled list of plan
// requests. Each request is planned from scratch, then gets one verified
// execute on the run-long ExecContext. Three classes:
//   interpreter  plan_dft, n = 2^6..2^16 x p in {1, 4}, verify_lowering,
//                autotune with model_prune_k = 6
//   batch        plan_batch_dft, n in {64, 256, 1024} x batch in {4, 32},
//                p = 2
//   jit          plan_dft with jit and no object cache, n in {2^8, 2^10}
//                x p in {1, 4}: every pass runs the compiler
// All use vector_nu = 4. Rewriting, search, lowering, analysis and the
// JIT do most of the work here; execution does almost none.
#include <algorithm>
#include <filesystem>

#include "host.hpp"
#include "layers.hpp"
#include "mirror.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sp = spiral;

namespace {

struct Request {
  PlanRequest req;
  bool large = false;
  bool jit = false;
  cvec x;
  cvec ref;
};

// The JIT request of the set-up pass: the largest program, whose module
// also brings the first JIT worker team.
const std::string kSetupJitKind = "jit-n1024-p4";

std::vector<PlanRequest> planner_requests(const std::string& jit_dir) {
  std::vector<PlanRequest> out;
  auto base = [](int p) {
    sp::core::PlannerOptions o;
    o.threads = p;
    o.vector_nu = 4;
    o.verify_lowering = true;
    return o;
  };
  for (int k = 6; k <= 16; ++k) {
    for (int p : {1, 4}) {
      PlanRequest q;
      q.n = idx_t{1} << k;
      q.opt = base(p);
      q.opt.autotune = true;
      q.opt.model_prune_k = 6;
      q.kind = "interp-" + size_kind(q.n) + "-p" + std::to_string(p);
      out.push_back(q);
    }
  }
  for (idx_t n : {64, 256, 1024}) {
    for (idx_t b : {4, 32}) {
      PlanRequest q;
      q.n = n;
      q.batch = b;
      q.opt = base(2);
      q.kind = "batch-" + size_kind(n) + "-b" + std::to_string(b) + "-p2";
      out.push_back(q);
    }
  }
  for (idx_t n : {256, 1024}) {
    for (int p : {1, 4}) {
      PlanRequest q;
      q.n = n;
      q.opt = base(p);
      q.opt.jit = true;
      q.opt.jit_options.use_cache = false;
      q.opt.jit_options.cache_dir = jit_dir;
      q.kind = "jit-" + size_kind(n) + "-p" + std::to_string(p);
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace

Result run_planner_cold(const RunOptions& opt) {
  Result r;
  Tracer tracer(opt.trace);
  sp::util::Rng rng(opt.seed);
  const std::string jit_dir = opt.work_dir + "/jit";
  std::filesystem::create_directories(jit_dir);
  std::vector<Request> list;
  for (const PlanRequest& q : planner_requests(jit_dir)) {
    Request rq;
    rq.req = q;
    rq.large = q.batch == 0 && q.n > 4096;
    rq.jit = q.opt.jit;
    rq.x = rng.complex_signal(q.elems());
    rq.ref = q.batch > 0 ? reference_batch_dft(rq.x, q.n, q.batch)
                         : reference_dft(rq.x);
    list.push_back(std::move(rq));
  }

  sp::backend::ExecContext ctx;
  // Leased first, the p=4 team serves every request: p=1 and p=2 programs
  // fold onto it, so the process never holds a second interpreter team.
  std::unique_ptr<sp::core::FftPlan> team_plan;

  // One request: plan + first execute are timed; the output check and
  // the plan's destruction are not.
  auto run_request = [&](Request& rq, Window* w, bool traced) -> double {
    cvec y(rq.x.size());
    r.ledger.attempt();
    tracer.set_request(static_cast<std::int64_t>(r.ledger.attempted()));
    const auto t0 = Clock::now();
    std::unique_ptr<sp::core::FftPlan> plan;
    try {
      plan = plan_request(rq.req, tracer);
      auto span = tracer.span_if(traced, "core.execute");
      plan->execute(ctx, rq.x.data(), y.data());
    } catch (const std::exception&) {
      r.ledger.fail("plan-exception");
      return 0.0;
    }
    const double us = us_between(t0, Clock::now());
    if (!matches(y.data(), rq.ref)) r.ledger.fail("wrong-output");
    else if (rq.jit && !plan->jit_active()) r.ledger.fail("jit-fallback");
    if (w != nullptr) {
      w->lat.add(rq.req.kind, us);
      w->busy_s += us * 1e-6;
      w->ops += 1.0;
    }
    return us;
  };
  // One seeded shuffle of the request list, stopping at `deadline`. The
  // set-up pass runs only one of the JIT requests.
  auto pass = [&](Clock::time_point deadline, Window* w, bool traced,
                  bool setup) {
    std::vector<std::size_t> order(list.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    double us = 0.0;
    for (std::size_t i : order) {
      if (Clock::now() >= deadline) break;
      if (setup && list[i].jit && list[i].req.kind != kSetupJitKind) continue;
      us += run_request(list[i], w, traced);
    }
    return us;
  };

  // Set-up in a fresh process, counted as library time only: the first
  // team spawn, then the first pass over the interpreter and batch
  // requests and one JIT request, the first compile. Each compile is a
  // compiler process whose time swings with host load (140-320 ms per
  // compile between consecutive processes), so the other three JIT
  // requests are left to the timed passes.
  {
    sp::core::PlannerOptions tp;
    tp.threads = 4;
    const cvec x = rng.complex_signal(256);
    cvec y(256);
    const auto t0 = Clock::now();
    team_plan = sp::core::plan_dft(256, tp);
    team_plan->execute(ctx, x.data(), y.data());
    r.setup_s = seconds_between(t0, Clock::now()) +
                pass(Clock::time_point::max(), nullptr, false, true) * 1e-6;
  }
  if (opt.setup_only) return r;

  auto run_for = [&](double seconds, Window& w, bool traced) {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) pass(deadline, &w, traced, false);
  };
  // Passes are few, so the whole run is one window.
  std::vector<Window> windows(1);
  if (!opt.trace) {
    run_for(opt.seconds, windows[0], false);
    report_windows(r, windows, [&](const std::string& kind) {
      for (const Request& rq : list) {
        if (rq.req.kind == kind) return rq.large;
      }
      return false;
    });
    // Plan time of the interpreter and batch kinds (JIT kinds excluded:
    // the compiler dominates them).
    std::vector<double> plan_ms;
    for (const auto& [kind, v] : windows[0].lat.kinds()) {
      if (kind.rfind("jit-", 0) != 0) plan_ms.push_back(median(v) * 1e-3);
    }
    r.set("plan_ms", geomean(plan_ms), "ms");
    return r;
  }
  Window plain, traced;
  run_for(opt.seconds * 0.25, plain, false);
  run_for(opt.seconds * 0.25, traced, true);
  report_trace_overhead(plain.ops / plain.busy_s, traced.ops / traced.busy_s, r);

  // Traced run: probes over the default-planner p=4 plans of three sizes,
  // then the mirrored planner over the whole request list.
  const double fma = probe_host(r);
  probe_team(4, ctx, r);
  std::vector<std::unique_ptr<sp::core::FftPlan>> plans;
  std::vector<ProbeTarget> targets;
  for (idx_t n : {idx_t{256}, idx_t{4096}, idx_t{65536}}) {
    sp::core::PlannerOptions o;
    o.vector_nu = 4;
    o.threads = 4;
    plans.push_back(sp::core::plan_dft(n, o));
    o.threads = 1;
    plans.push_back(sp::core::plan_dft(n, o));
    ProbeTarget t;
    t.kind = size_kind(n);
    t.large = n > 4096;
    t.plan = plans[plans.size() - 2].get();
    t.plan_p1 = plans.back().get();
    t.n = n;
    t.nu = 4;
    t.p = 4;
    targets.push_back(t);
  }
  probe_plans(targets, ctx, opt.seed, fma, r);
  std::vector<PlanRequest> reqs;
  for (const Request& rq : list) reqs.push_back(rq.req);
  probe_planning(reqs, tracer, r);
  r.set("trace.spans", static_cast<double>(tracer.total_count()), "count");
  tracer.write_json(opt.work_dir + "/trace-planner-cold-" +
                    std::to_string(opt.seed) + ".json");
  return r;
}

}  // namespace perfbench
