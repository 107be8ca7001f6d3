// perfbench: drives the library as its users do and prints one JSON
// result line. Usually invoked through run.py, which builds it, repeats
// the set-up in fresh processes and merges the results:
//
//   perfbench --workload exec-p4 --seed 1 --seconds 10 --trace 0
//   perfbench --workload planner-cold --seed 1 --setup-only
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "host.hpp"
#include "threading/pool_registry.hpp"
#include "threading/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

CounterBase counter_base() {
  CounterBase b;
  b.pools_created = spiral::threading::global_pool_registry().stats().created;
  b.threads_spawned = spiral::threading::ThreadPool::threads_spawned();
  return b;
}

void finish_run(const RunOptions& opt, const CounterBase& base, Result& r) {
  if (opt.trace) {
    const auto st = spiral::threading::global_pool_registry().stats();
    r.set("threading.pools_created",
          static_cast<double>(st.created - base.pools_created), "count");
    r.set("threading.threads_spawned",
          static_cast<double>(spiral::threading::ThreadPool::threads_spawned() -
                              base.threads_spawned),
          "count");
    return;
  }
  r.set("idle_cpu_cores", idle_cpu_cores(kIdleSlices, kIdleSliceS), "cores");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

void report_trace_overhead(double untraced_rps, double traced_rps, Result& r) {
  r.set("trace.overhead_pct", 100.0 * (untraced_rps / traced_rps - 1.0), "%");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--setup-only") opt.setup_only = true;
    else if (a == "--work-dir") opt.work_dir = next();
    else {
      std::cerr << "perfbench: unknown argument " << a << "\n";
      return 2;
    }
  }
  const CounterBase base = counter_base();
  Result r;
  try {
    if (opt.workload == "exec-p4") r = run_exec_p4(opt);
    else if (opt.workload == "service-stream") r = run_service_stream(opt);
    else if (opt.workload == "planner-cold") r = run_planner_cold(opt);
    else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!opt.setup_only) finish_run(opt, base, r);
  const HostStamp h = host_stamp();
  r.stamp["nproc"] = std::to_string(h.nproc);
  r.stamp["isa"] = h.isa;
  r.stamp["cpu"] = h.cpu;
  r.stamp["l1d_bytes"] = std::to_string(h.l1d_bytes);
  r.stamp["l2_bytes"] = std::to_string(h.l2_bytes);
  r.stamp["l3_bytes"] = std::to_string(h.l3_bytes);
  r.stamp["compiler"] = h.compiler;
  r.stamp["workload"] = opt.workload;
  r.stamp["seed"] = std::to_string(opt.seed);
  std::cout << r.to_json() << std::endl;
  return 0;
}
