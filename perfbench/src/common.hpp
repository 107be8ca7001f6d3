// Shared plumbing of the three workloads: run options, the result record
// the harness prints, independent reference transforms and output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "util/aligned_vector.hpp"
#include "util/common.hpp"

namespace perfbench {

using spiral::cplx;
using spiral::idx_t;
using spiral::util::cvec;
using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Only perform (and time) the workload's set-up, then exit.
  bool setup_only = false;
  /// Directory for trace files and JIT objects (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// Everything one harness process reports, keyed by metric name.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> details;
  std::map<std::string, std::string> stamp;  ///< host and run data
  FailureLedger ledger;
  double setup_s = 0.0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  [[nodiscard]] std::string to_json() const;
};

/// Timed phases are split into this many equal windows; each latency and
/// throughput metric is the median of its per-window values, so a burst
/// of interference from outside the process moves it less.
inline constexpr int kWindows = 10;

/// Sets throughput_rps and lat_us_p{50,90}_{small,large} as medians over
/// `windows`; `large` tells the large-class kinds from the small ones.
/// Per-kind p50, p90, p99 and p99.9 go to r.details.
void report_windows(Result& r, const std::vector<Window>& windows,
                    const std::function<bool(const std::string&)>& large);

/// y = DFT_n(x) from an implementation independent of the generator:
/// the direct O(n^2) sum up to 2^10, the iterative radix-2 FFT above.
[[nodiscard]] cvec reference_dft(const cvec& x);

/// Reference of `batch` concatenated DFT_n's.
[[nodiscard]] cvec reference_batch_dft(const cvec& x, idx_t n, idx_t batch);

/// True when y matches ref to a relative L2 error of 1e-9.
[[nodiscard]] bool matches(const cplx* y, const cvec& ref);

/// Pseudo flop count of one DFT_n: 5 n log2 n.
[[nodiscard]] double pseudo_flops(idx_t n);

/// "n256" etc.
[[nodiscard]] std::string size_kind(idx_t n);

}  // namespace perfbench
