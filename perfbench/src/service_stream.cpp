// service-stream: one pipelined client of service::BatchExecutor.
//
// The client keeps a window of 64 requests in flight on a service with
// threads=2 and planner.vector_nu=4 (the batcher is participant 0 of the
// 2-thread team, so 3 threads run in all). Sizes are drawn 4:2:1 from
// {64, 256, 1024}. Closed loop: the client waits for its oldest ticket,
// records the client-observed latency (submit to poll() first reporting
// done; see await_ticket), then resubmits that slot. The queue, binning,
// flushing, gather/scatter copies and hot PlanCache lookups set the
// time; each transform carries little kernel work.
#include <algorithm>
#include <thread>

#include "host.hpp"
#include "layers.hpp"
#include "mirror.hpp"
#include "service/batch_executor.hpp"
#include "threading/pool_registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sp = spiral;

namespace {

constexpr int kThreads = 2;
constexpr idx_t kSizes[] = {64, 256, 1024};
constexpr int kWeights[] = {4, 2, 1};
constexpr std::size_t kWindow = 64;
constexpr idx_t kMaxBatch = 32;
constexpr int kVariants = 4;
constexpr unsigned kCheckEvery = 64;
constexpr int kReplanRoundsPerWindow = 3;  // plan_ms samples per plan and window
constexpr int kPollSpins = 1 << 10;  // polls before each further poll yields

struct SizeInputs {
  cvec x[kVariants];
  cvec ref[kVariants];
};

struct Slot {
  std::size_t size = 0;
  int variant = 0;
  sp::service::Ticket ticket;
  Clock::time_point submitted;
  cvec y;
};

sp::core::PlannerOptions service_planner() {
  sp::core::PlannerOptions p;
  p.threads = kThreads;
  p.vector_nu = 4;
  p.verify_lowering = true;
  return p;
}

/// The plans the service draws from its cache: DFT_n for lone requests,
/// I_k (x) DFT_n for coalesced chunks k = 2, 4, ..., max_batch.
std::vector<PlanRequest> service_requests() {
  std::vector<PlanRequest> out;
  for (idx_t n : kSizes) {
    for (idx_t k = 1; k <= kMaxBatch; k *= 2) {
      PlanRequest q;
      q.n = n;
      q.batch = k == 1 ? 0 : k;
      q.opt = service_planner();
      q.kind = "batch-" + size_kind(n) + "-k" + std::to_string(k);
      out.push_back(q);
    }
  }
  return out;
}

/// Waits for `t` by polling; throws like BatchExecutor::wait() when the
/// request failed. The client does not call wait(): with libstdc++ 12 a
/// wait() that blocks can miss its wake-up and sleep forever after the
/// request completed (complete() stores the phase with release order and
/// then notifies; the notify reads the waiter count without a fence after
/// that store, sees no waiter and skips the futex wake). That hung 2 of
/// 54 runs; see README.md, "Known limits".
void await_ticket(const sp::service::BatchExecutor& svc,
                  const sp::service::Ticket& t) {
  for (int spins = 0; !svc.poll(t);) {
    if (spins < kPollSpins) ++spins;
    else std::this_thread::yield();
  }
}

}  // namespace

Result run_service_stream(const RunOptions& opt) {
  Result r;
  Tracer tracer(opt.trace);
  sp::util::Rng rng(opt.seed);
  std::vector<SizeInputs> inputs(std::size(kSizes));
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    for (int v = 0; v < kVariants; ++v) {
      inputs[i].x[v] = rng.complex_signal(kSizes[i]);
      inputs[i].ref[v] = reference_dft(inputs[i].x[v]);
    }
  }
  const std::vector<PlanRequest> requests = service_requests();
  auto draw_size = [&] {
    const auto w = rng.uniform_int(0, 6);  // weights 4:2:1 over 7 slots
    return w < kWeights[0] ? 0u : (w < kWeights[0] + kWeights[1] ? 1u : 2u);
  };

  // Set-up: the cache, the service and every plan it will draw, then one
  // verified request per size.
  const auto t_setup = Clock::now();
  sp::core::PlanCache cache;
  sp::service::ServiceOptions so;
  so.threads = kThreads;
  so.max_batch = kMaxBatch;
  so.planner = service_planner();
  so.cache = &cache;
  sp::service::BatchExecutor svc(so);
  for (const PlanRequest& q : requests) {
    r.ledger.attempt();
    try {
      auto span = tracer.span("core.plan_cache.get");
      if (q.batch == 0) {
        (void)cache.dft(q.n, q.opt);
      } else {
        (void)cache.batch_dft(q.n, q.batch, q.opt);
      }
    } catch (const std::exception&) {
      r.ledger.fail("plan-exception");
      continue;
    }
  }
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    cvec y(static_cast<std::size_t>(kSizes[i]));
    r.ledger.attempt();
    try {
      await_ticket(svc, svc.submit(kSizes[i], inputs[i].x[0].data(), y.data()));
      if (!matches(y.data(), inputs[i].ref[0])) r.ledger.fail("wrong-output");
    } catch (const std::exception&) {
      r.ledger.fail("ticket-failed");
    }
  }
  r.setup_s = seconds_between(t_setup, Clock::now());
  if (opt.setup_only) return r;

  const auto stats0 = svc.stats();
  const auto cache0 = cache.stats();
  std::vector<Slot> slots(kWindow);
  KindSamples service_lat, wake;  // traced run: service-side breakdown
  auto submit = [&](Slot& s, bool traced) {
    s.size = draw_size();
    s.variant = static_cast<int>(rng.uniform_int(0, kVariants - 1));
    s.submitted = Clock::now();
    try {
      auto span = tracer.span_if(traced, "service.submit");
      s.ticket = svc.submit(kSizes[s.size], inputs[s.size].x[s.variant].data(),
                            s.y.data());
    } catch (const std::exception&) {
      r.ledger.check(false, "refused");
      s.ticket = {};
    }
  };
  // Waits for one slot's ticket and records its client-observed latency
  // into `w` (when set); returns false when the request failed.
  auto complete = [&](Slot& s, Window* w, bool traced) {
    if (!s.ticket.valid()) return false;
    r.ledger.attempt();
    try {
      auto span = tracer.span_if(traced, "service.poll");
      await_ticket(svc, s.ticket);
    } catch (const std::exception&) {
      r.ledger.fail("ticket-failed");
      return false;
    }
    const auto done = Clock::now();
    const std::string kind = size_kind(kSizes[s.size]);
    const double lat = us_between(s.submitted, done);
    if (w != nullptr) {
      w->lat.add(kind, lat);
      if (traced) {
        service_lat.add(kind, s.ticket.latency_us());
        wake.add("all", lat - s.ticket.latency_us());
      }
    }
    if (rng.engine()() % kCheckEvery == 0 &&
        !matches(s.y.data(), inputs[s.size].ref[s.variant])) {
      r.ledger.fail("wrong-output");
    }
    return true;
  };
  // The closed loop for `seconds`, recording into `w` (when set). It
  // starts with a full window of requests and drains it at the end.
  auto loop = [&](double seconds, Window* w, bool traced) {
    for (Slot& s : slots) {
      s.y.resize(static_cast<std::size_t>(kSizes[std::size(kSizes) - 1]));
      submit(s, traced);
    }
    const auto t0 = Clock::now();
    std::size_t i = 0;
    double done = 0.0;
    while (seconds_between(t0, Clock::now()) < seconds) {
      if (complete(slots[i], w, traced)) done += 1.0;
      submit(slots[i], traced);
      i = (i + 1) % kWindow;
    }
    if (w != nullptr) {
      w->ops = done;
      w->busy_s = seconds_between(t0, Clock::now());
    }
    for (std::size_t k = 0; k < kWindow; ++k) {
      complete(slots[(i + k) % kWindow], nullptr, traced);
    }
  };

  // Plan time after set-up: every plan the service draws, planned again
  // from scratch and returning one verified result, in rounds after each
  // window. The harness leases a team of its own only while it re-plans:
  // an untimed execute of a cached plan spawns it, and it is returned and
  // destroyed afterwards so it never competes with the service.
  std::vector<cvec> xs, refs;
  if (!opt.trace) {
    for (const PlanRequest& q : requests) {
      const auto i = static_cast<std::size_t>(
          std::find(std::begin(kSizes), std::end(kSizes), q.n) -
          std::begin(kSizes));
      const idx_t batch = std::max<idx_t>(1, q.batch);
      cvec x;
      for (idx_t b = 0; b < batch; ++b) {
        const cvec& part = inputs[i].x[b % kVariants];
        x.insert(x.end(), part.begin(), part.end());
      }
      refs.push_back(reference_batch_dft(x, q.n, batch));
      xs.push_back(std::move(x));
    }
  }
  KindSamples replans;
  auto replan_rounds = [&](int rounds) {
    sp::backend::ExecContext ctx;
    cvec y(xs.front().size());
    cache.dft(requests.front().n, requests.front().opt)
        ->execute(ctx, xs.front().data(), y.data());
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t k = 0; k < requests.size(); ++k) {
        y.resize(xs[k].size());
        r.ledger.attempt();
        const auto t0 = Clock::now();
        try {
          auto plan = plan_request(requests[k], tracer);
          plan->execute(ctx, xs[k].data(), y.data());
        } catch (const std::exception&) {
          r.ledger.fail("plan-exception");
          continue;
        }
        replans.add(requests[k].kind, us_between(t0, Clock::now()) * 1e-3);
        if (!matches(y.data(), refs[k])) r.ledger.fail("wrong-output");
      }
    }
    ctx.reset();
    sp::threading::global_pool_registry().trim();
  };

  loop(1.0, nullptr, false);  // warm-up
  std::vector<Window> windows(kWindows);
  std::vector<std::string> kinds;
  for (idx_t n : kSizes) kinds.push_back(size_kind(n));
  for (Window& w : windows) w.lat.reserve(kinds);
  if (!opt.trace) {
    for (Window& w : windows) {
      loop(opt.seconds / kWindows, &w, false);
      replan_rounds(kReplanRoundsPerWindow);
    }
  } else {
    Window plain, traced;
    loop(opt.seconds * 0.3, &plain, false);
    loop(opt.seconds * 0.3, &traced, true);
    report_trace_overhead(plain.ops / plain.busy_s, traced.ops / traced.busy_s,
                          r);
  }
  svc.drain();
  // Every size again against the reference, after the timed phase.
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    for (int v = 0; v < kVariants; ++v) {
      cvec y(static_cast<std::size_t>(kSizes[i]));
      r.ledger.attempt();
      try {
        await_ticket(svc, svc.submit(kSizes[i], inputs[i].x[v].data(), y.data()));
        if (!matches(y.data(), inputs[i].ref[v])) r.ledger.fail("wrong-output");
      } catch (const std::exception&) {
        r.ledger.fail("ticket-failed");
      }
    }
  }

  if (!opt.trace) {
    report_windows(r, windows, [](const std::string& kind) {
      return kind == size_kind(1024);
    });
    r.set("plan_ms", replans.geomean_percentile(50), "ms");
    return r;
  }

  // Traced run: service counters of the timed phases, then probes.
  const auto st = svc.stats();
  const auto cst = cache.stats();
  const double batches = static_cast<double>(st.batches - stats0.batches);
  const double reqs = static_cast<double>(st.completed - stats0.completed);
  const double flushes =
      static_cast<double>((st.flushes_size - stats0.flushes_size) +
                          (st.flushes_deadline - stats0.flushes_deadline) +
                          (st.flushes_idle - stats0.flushes_idle));
  r.set("service.mean_batch", reqs / batches, "count");
  r.set("service.flush_share.size",
        static_cast<double>(st.flushes_size - stats0.flushes_size) / flushes,
        "ratio");
  r.set("service.flush_share.deadline",
        static_cast<double>(st.flushes_deadline - stats0.flushes_deadline) /
            flushes,
        "ratio");
  r.set("service.flush_share.idle",
        static_cast<double>(st.flushes_idle - stats0.flushes_idle) / flushes,
        "ratio");
  r.set("core.plan_cache.hits", static_cast<double>(cst.hits - cache0.hits),
        "count");
  r.set("core.plan_cache.misses",
        static_cast<double>(cst.misses - cache0.misses), "count");
  r.set("service.wake_us_p50", wake.geomean_percentile(50), "us");
  // Gather plus scatter of every coalesced request (lone requests skip
  // both copies; counted as if coalesced — computed upper bound).
  double bytes = 0.0, weight = 0.0;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    bytes += kWeights[i] * 2.0 * 16.0 * static_cast<double>(kSizes[i]);
    weight += kWeights[i];
  }
  r.set("service.copy_bytes_per_req", bytes / weight, "B");

  {
    auto lookups = [&] {
      std::vector<double> per;
      const auto planner = service_planner();
      for (int rep = 0; rep < 9; ++rep) {
        constexpr int kLookups = 20000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kLookups; ++i) {
          (void)cache.batch_dft(kSizes[i % 3], kMaxBatch, planner);
        }
        per.push_back(us_between(t0, Clock::now()) * 1e3 / kLookups);
      }
      return median(per);
    };
    r.set("core.plan_cache.lookup_ns", lookups(), "ns");
  }

  const double fma = probe_host(r);
  sp::backend::ExecContext ctx;
  probe_team(kThreads, ctx, r);
  std::vector<std::shared_ptr<sp::core::FftPlan>> plans;
  std::vector<std::unique_ptr<sp::core::FftPlan>> twins;
  std::vector<ProbeTarget> targets;
  for (idx_t n : kSizes) {
    plans.push_back(cache.batch_dft(n, kMaxBatch, service_planner()));
    auto p1 = service_planner();
    p1.threads = 1;
    twins.push_back(sp::core::plan_batch_dft(n, kMaxBatch, p1));
    ProbeTarget t;
    t.kind = size_kind(n);
    t.large = n == 1024;
    t.plan = plans.back().get();
    t.plan_p1 = twins.back().get();
    t.n = n;
    t.batch = kMaxBatch;
    t.nu = 4;
    t.p = kThreads;
    targets.push_back(t);
  }
  probe_plans(targets, ctx, opt.seed, fma, r);
  std::vector<double> batch_us, queue_us;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    const double us = r.details["backend.exec_us." + size_kind(kSizes[i])];
    batch_us.push_back(us);
    queue_us.push_back(median(service_lat.values(size_kind(kSizes[i]))) - us);
  }
  r.set("service.batch_exec_us", geomean(batch_us), "us");
  r.set("service.queue_us_p50", mean(queue_us), "us");
  probe_planning(requests, tracer, r);
  r.set("trace.spans", static_cast<double>(tracer.total_count()), "count");
  tracer.write_json(opt.work_dir + "/trace-service-stream-" +
                    std::to_string(opt.seed) + ".json");
  return r;
}

}  // namespace perfbench
