// Order statistics and summaries the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile q in [0, 100] with linear interpolation between closest
/// ranks (numpy's default). Returns NaN for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = (q / 100.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Geometric mean of positive values; NaN when empty or any value <= 0.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double acc = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return std::nan("");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(v.size()));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

/// Samples grouped by a request kind (a transform size, a plan request).
/// Each kind keeps at most `cap` samples, a uniform reservoir of all it
/// was given, so memory stays bounded however fast the program runs.
class KindSamples {
 public:
  KindSamples() = default;
  explicit KindSamples(std::size_t cap) : cap_(cap) {}

  void add(const std::string& kind, double value) {
    Kind& k = by_kind_[kind];
    ++k.seen;
    if (k.values.size() < cap_) {
      k.values.push_back(value);
      return;
    }
    // Algorithm R: keep the new value with probability cap / seen.
    const std::uint64_t j = next() % k.seen;
    if (j < cap_) k.values[static_cast<std::size_t>(j)] = value;
  }
  /// Allocates every kind's full reservoir now, so that recording
  /// allocates nothing (and the process's peak RSS does not depend on the
  /// order in which kinds first show up).
  void reserve(const std::vector<std::string>& kinds) {
    for (const auto& kind : kinds) by_kind_[kind].values.reserve(cap_);
  }
  /// Kinds and their retained samples.
  [[nodiscard]] std::map<std::string, std::vector<double>> kinds() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& [name, k] : by_kind_) out[name] = k.values;
    return out;
  }
  /// One kind's retained samples (throws std::out_of_range for a kind
  /// never given).
  [[nodiscard]] const std::vector<double>& values(const std::string& kind) const {
    return by_kind_.at(kind).values;
  }
  /// Samples given for one kind (retained or not).
  [[nodiscard]] std::uint64_t seen(const std::string& kind) const {
    auto it = by_kind_.find(kind);
    return it == by_kind_.end() ? 0 : it->second.seen;
  }
  /// Geometric mean over kinds of the per-kind q-th percentile.
  [[nodiscard]] double geomean_percentile(double q) const {
    std::vector<double> per;
    for (const auto& [name, k] : by_kind_) per.push_back(percentile(k.values, q));
    return geomean(per);
  }

 private:
  struct Kind {
    std::vector<double> values;
    std::uint64_t seen = 0;
  };
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t cap_ = std::size_t{1} << 16;
  std::uint64_t state_ = 0;
  std::map<std::string, Kind> by_kind_;
};

/// One slice of a timed phase: request latencies by kind and the
/// requests completed over the slice's busy time.
struct Window {
  KindSamples lat;
  double ops = 0.0;
  double busy_s = 0.0;
};

/// Median over windows of a per-window statistic.
template <typename F>
double median_over(const std::vector<Window>& windows, F stat) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(stat(w));
  return median(v);
}

/// Operations attempted and failed, with the failure causes.
class FailureLedger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& cause, std::uint64_t n = 1) {
    failed_ += n;
    causes_[cause] += n;
  }
  /// Records one attempt that succeeded iff `ok`.
  void check(bool ok, const std::string& cause) {
    attempt();
    if (!ok) fail(cause);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& causes() const {
    return causes_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> causes_;
};

}  // namespace perfbench
