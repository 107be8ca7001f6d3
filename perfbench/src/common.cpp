#include "common.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "baselines/dft_direct.hpp"
#include "baselines/fft_iterative.hpp"

namespace perfbench {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  const bool correct = ledger.failed() == 0;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << ledger.attempted()
     << ",\"failed\":" << ledger.failed() << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << quoted(name) << ":{\"value\":" << num(m.value)
       << ",\"unit\":" << quoted(m.unit) << "}";
    first = false;
  }
  os << "},\"setup_s\":" << num(setup_s) << ",\"failures\":{";
  first = true;
  for (const auto& [cause, n] : ledger.causes()) {
    os << (first ? "" : ",") << quoted(cause) << ":" << n;
    first = false;
  }
  os << "},\"stamp\":{";
  first = true;
  for (const auto& [k, v] : stamp) {
    os << (first ? "" : ",") << quoted(k) << ":" << quoted(v);
    first = false;
  }
  os << "},\"details\":{";
  first = true;
  for (const auto& [k, v] : details) {
    os << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

void report_windows(Result& r, const std::vector<Window>& windows,
                    const std::function<bool(const std::string&)>& large) {
  auto class_stat = [&](const Window& w, bool want_large, double q) {
    std::vector<double> per;
    for (const auto& [kind, v] : w.lat.kinds()) {
      if (large(kind) == want_large) per.push_back(percentile(v, q));
    }
    return geomean(per);
  };
  r.set("throughput_rps",
        median_over(windows, [](const Window& w) { return w.ops / w.busy_s; }),
        "1/s");
  for (const bool lg : {false, true}) {
    const std::string cls = lg ? "large" : "small";
    r.set("lat_us_p50_" + cls, median_over(windows, [&](const Window& w) {
            return class_stat(w, lg, 50);
          }), "us");
    r.set("lat_us_p90_" + cls, median_over(windows, [&](const Window& w) {
            return class_stat(w, lg, 90);
          }), "us");
  }
  // Per-kind detail: samples given, and the median over windows of each
  // window's percentiles.
  std::map<std::string, std::map<std::string, std::vector<double>>> per;
  for (const Window& w : windows) {
    for (const auto& [kind, v] : w.lat.kinds()) {
      r.details["lat_us." + kind + ".count"] +=
          static_cast<double>(w.lat.seen(kind));
      static const std::pair<const char*, double> kStats[] = {
          {"p50", 50.0}, {"p90", 90.0}, {"p99", 99.0}, {"p999", 99.9}};
      for (const auto& [stat, q] : kStats) {
        per[kind][stat].push_back(percentile(v, q));
      }
    }
  }
  for (const auto& [kind, stats] : per) {
    for (const auto& [stat, v] : stats) {
      r.details["lat_us." + kind + "." + stat] = median(v);
    }
  }
}

cvec reference_dft(const cvec& x) {
  if (x.size() <= 1024) return spiral::baselines::dft_direct(x);
  return spiral::baselines::fft_iterative(x);
}

cvec reference_batch_dft(const cvec& x, idx_t n, idx_t batch) {
  cvec out(x.size());
  for (idx_t b = 0; b < batch; ++b) {
    cvec one(x.begin() + b * n, x.begin() + (b + 1) * n);
    const cvec r = reference_dft(one);
    std::copy(r.begin(), r.end(), out.begin() + b * n);
  }
  return out;
}

bool matches(const cplx* y, const cvec& ref) {
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err += std::norm(y[i] - ref[i]);
    norm += std::norm(ref[i]);
  }
  return std::isfinite(err) && err <= 1e-18 * norm;
}

double pseudo_flops(idx_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

std::string size_kind(idx_t n) {
  std::string s = "n";
  s += std::to_string(n);
  return s;
}

}  // namespace perfbench
