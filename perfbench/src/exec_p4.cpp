// exec-p4: repeated out-of-place execute(ctx, x, y) on p=4 plans.
//
// Library mode: DFT_n planned with threads=4, vector_nu=4,
// verify_lowering and the default (deterministic) planner, for a small
// class {2^8, 2^10, 2^12} — pool dispatch and barrier crossings set the
// time — and a large class {2^14, 2^16, 2^18} — SIMD codelets and memory
// traffic set it. One closed loop on the calling thread (participant 0 of
// the 4-thread team). The classes alternate in phases; within a phase the
// sizes take turns in short, seeded-order bursts.
#include <algorithm>

#include "host.hpp"
#include "layers.hpp"
#include "mirror.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sp = spiral;

namespace {

constexpr int kThreads = 4;
constexpr idx_t kSizes[] = {256, 1024, 4096, 16384, 65536, 262144};
constexpr idx_t kLargeFrom = 16384;  // first size of the large class
constexpr double kPhaseS = 0.5;   // one class runs this long
constexpr double kBurstS = 0.002; // one size runs this long per turn
constexpr unsigned kCheckEvery = 64;  // expected calls per sampled check
constexpr int kReplansPerWindow = 1;  // plan_ms samples per size and window

struct SizeState {
  PlanRequest req;
  bool large = false;
  std::unique_ptr<sp::core::FftPlan> plan;
  cvec x[2];
  cvec ref[2];
  cvec y;
};

PlanRequest exec_request(idx_t n, int threads) {
  PlanRequest q;
  q.n = n;
  q.opt.threads = threads;
  q.opt.vector_nu = 4;
  q.opt.verify_lowering = true;
  q.kind = "dft-" + size_kind(n) + "-p" + std::to_string(threads);
  return q;
}

}  // namespace

Result run_exec_p4(const RunOptions& opt) {
  Result r;
  Tracer tracer(opt.trace);
  sp::util::Rng rng(opt.seed);
  std::vector<SizeState> sizes;
  for (idx_t n : kSizes) {
    SizeState s;
    s.req = exec_request(n, kThreads);
    s.large = n >= kLargeFrom;
    for (int k = 0; k < 2; ++k) {
      s.x[k] = rng.complex_signal(n);
      s.ref[k] = reference_dft(s.x[k]);
    }
    s.y.resize(static_cast<std::size_t>(n));
    sizes.push_back(std::move(s));
  }

  // Set-up: from the first library call until every plan has returned its
  // first verified result.
  sp::backend::ExecContext ctx;
  const auto t_setup = Clock::now();
  for (SizeState& s : sizes) {
    r.ledger.attempt();
    try {
      s.plan = plan_request(s.req, tracer);
      s.plan->execute(ctx, s.x[0].data(), s.y.data());
    } catch (const std::exception&) {
      r.ledger.fail("plan-exception");
      s.plan.reset();
      continue;
    }
    if (!matches(s.y.data(), s.ref[0])) r.ledger.fail("wrong-output");
  }
  r.setup_s = seconds_between(t_setup, Clock::now());
  if (opt.setup_only) return r;
  for (const SizeState& s : sizes) {
    if (!s.plan) throw std::runtime_error("exec-p4: a plan failed");
  }

  std::vector<std::size_t> cls[2];
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    cls[sizes[i].large ? 1 : 0].push_back(i);
  }
  // One closed loop for `seconds`, recording into `w` (when set).
  std::uint64_t calls = 0;
  auto loop = [&](double seconds, Window* w, bool traced) {
    const auto start = Clock::now();
    // Short loops still give both classes a phase.
    const double phase_s = std::min(kPhaseS, seconds / 2);
    int c = 0;
    while (seconds_between(start, Clock::now()) < seconds) {
      const double phase_end =
          std::min(seconds, seconds_between(start, Clock::now()) + phase_s);
      while (seconds_between(start, Clock::now()) < phase_end) {
        std::vector<std::size_t> order = cls[c];
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (std::size_t idx : order) {
          SizeState& s = sizes[idx];
          const std::string kind = size_kind(s.req.n);
          const auto b0 = Clock::now();
          double check_us = 0.0;
          double burst_calls = 0.0;
          do {
            const int k = static_cast<int>(calls & 1);
            const auto t0 = Clock::now();
            {
              auto span = tracer.span_if(traced, "core.execute");
              s.plan->execute(ctx, s.x[k].data(), s.y.data());
            }
            const auto t1 = Clock::now();
            ++calls;
            burst_calls += 1.0;
            r.ledger.attempt();
            if (w != nullptr) w->lat.add(kind, us_between(t0, t1));
            if (rng.engine()() % kCheckEvery == 0) {
              if (!matches(s.y.data(), s.ref[k])) r.ledger.fail("wrong-output");
              check_us += us_between(t1, Clock::now());
            }
          } while (us_between(b0, Clock::now()) - check_us < kBurstS * 1e6);
          if (w != nullptr) {
            w->ops += burst_calls;
            w->busy_s += (us_between(b0, Clock::now()) - check_us) * 1e-6;
          }
        }
      }
      c ^= 1;
    }
  };
  // Plan time after set-up: every size planned again, each plan returning
  // one verified result.
  KindSamples replans;
  auto replan_round = [&] {
    for (SizeState& s : sizes) {
      r.ledger.attempt();
      const auto t0 = Clock::now();
      try {
        auto plan = plan_request(s.req, tracer);
        plan->execute(ctx, s.x[0].data(), s.y.data());
      } catch (const std::exception&) {
        r.ledger.fail("plan-exception");
        continue;
      }
      replans.add(s.req.kind, us_between(t0, Clock::now()) * 1e-3);
      if (!matches(s.y.data(), s.ref[0])) r.ledger.fail("wrong-output");
    }
  };

  loop(1.0, nullptr, false);  // warm-up: caches, branch predictors, team
  std::vector<Window> windows(kWindows);
  std::vector<std::string> kinds;
  for (const SizeState& s : sizes) kinds.push_back(size_kind(s.req.n));
  for (Window& w : windows) w.lat.reserve(kinds);
  if (!opt.trace) {
    // The windows alternate with re-planning rounds, so both sample the
    // whole run.
    for (Window& w : windows) {
      loop(opt.seconds / kWindows, &w, false);
      for (int i = 0; i < kReplansPerWindow; ++i) replan_round();
    }
  } else {
    Window plain, traced;
    loop(opt.seconds * 0.3, &plain, false);
    loop(opt.seconds * 0.3, &traced, true);
    report_trace_overhead(plain.ops / plain.busy_s, traced.ops / traced.busy_s,
                          r);
  }
  // Every plan again against the reference, after the timed phase.
  for (SizeState& s : sizes) {
    for (int k = 0; k < 2; ++k) {
      s.plan->execute(ctx, s.x[k].data(), s.y.data());
      r.ledger.check(matches(s.y.data(), s.ref[k]), "wrong-output");
    }
  }

  if (!opt.trace) {
    report_windows(r, windows, [](const std::string& kind) {
      return std::stoll(kind.substr(1)) >= kLargeFrom;
    });
    r.set("plan_ms", replans.geomean_percentile(50), "ms");
    return r;
  }

  // Traced run: per-layer probes over this workload's plans.
  const double fma = probe_host(r);
  probe_team(kThreads, ctx, r);
  std::vector<std::unique_ptr<sp::core::FftPlan>> twins;
  std::vector<ProbeTarget> targets;
  for (const SizeState& s : sizes) {
    twins.push_back(plan_request(exec_request(s.req.n, 1), tracer));
    ProbeTarget t;
    t.kind = size_kind(s.req.n);
    t.large = s.large;
    t.plan = s.plan.get();
    t.plan_p1 = twins.back().get();
    t.n = s.req.n;
    t.nu = s.req.opt.vector_nu;
    t.p = kThreads;
    targets.push_back(t);
  }
  probe_plans(targets, ctx, opt.seed, fma, r);
  std::vector<PlanRequest> reqs;
  for (const SizeState& s : sizes) reqs.push_back(s.req);
  probe_planning(reqs, tracer, r);
  r.set("trace.spans", static_cast<double>(tracer.total_count()), "count");
  tracer.write_json(opt.work_dir + "/trace-exec-p4-" + std::to_string(opt.seed) +
                    ".json");
  return r;
}

}  // namespace perfbench
