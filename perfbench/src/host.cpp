#include "host.hpp"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "backend/simd.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string cpu_brand() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char buf[49] = {};
  std::memcpy(buf, regs, 48);
  std::string s(buf);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

// Eight independent FMA chains of W-lane vectors hide the FMA latency;
// the result is consumed so the loop cannot be removed. The read kernel
// streams a buffer through four accumulators. One copy per ISA, each
// compiled for its target.
#define PERFBENCH_KERNELS(SUFFIX, W, TARGET)                                 \
  typedef double vd_##SUFFIX __attribute__((vector_size(W * 8)));            \
  TARGET double fma_##SUFFIX(long iters) {                                   \
    vd_##SUFFIX acc[8];                                                      \
    vd_##SUFFIX a, b;                                                        \
    for (int l = 0; l < W; ++l) {                                            \
      a[l] = 1.0 + 1e-9 * l;                                                 \
      b[l] = 1e-12;                                                          \
    }                                                                        \
    for (auto& v : acc) v = a;                                               \
    for (long i = 0; i < iters; ++i) {                                       \
      for (auto& v : acc) v = v * a + b;                                     \
    }                                                                        \
    double s = 0.0;                                                          \
    for (auto& v : acc) {                                                    \
      for (int l = 0; l < W; ++l) s += v[l];                                 \
    }                                                                        \
    return s;                                                                \
  }                                                                          \
  TARGET double read_##SUFFIX(const double* p, std::size_t n, long sweeps) { \
    vd_##SUFFIX a0{}, a1{}, a2{}, a3{};                                      \
    const std::size_t step = 4 * W;                                          \
    for (long s = 0; s < sweeps; ++s) {                                      \
      for (std::size_t i = 0; i + step <= n; i += step) {                    \
        vd_##SUFFIX v0, v1, v2, v3;                                          \
        std::memcpy(&v0, p + i, sizeof v0);                                  \
        std::memcpy(&v1, p + i + W, sizeof v1);                              \
        std::memcpy(&v2, p + i + 2 * W, sizeof v2);                          \
        std::memcpy(&v3, p + i + 3 * W, sizeof v3);                          \
        a0 += v0;                                                            \
        a1 += v1;                                                            \
        a2 += v2;                                                            \
        a3 += v3;                                                            \
      }                                                                      \
    }                                                                        \
    const vd_##SUFFIX a = a0 + a1 + a2 + a3;                                 \
    double s = 0.0;                                                          \
    for (int l = 0; l < W; ++l) s += a[l];                                   \
    return s;                                                                \
  }

PERFBENCH_KERNELS(avx512, 8, __attribute__((target("avx512f,fma"))))
PERFBENCH_KERNELS(avx2, 4, __attribute__((target("avx2,fma"))))
PERFBENCH_KERNELS(generic, 2, )
#undef PERFBENCH_KERNELS

struct Kernels {
  double (*fma)(long);
  double (*read)(const double*, std::size_t, long);
  int lanes;
};

Kernels host_kernels() {
  if (__builtin_cpu_supports("avx512f")) return {fma_avx512, read_avx512, 8};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {fma_avx2, read_avx2, 4};
  }
  return {fma_generic, read_generic, 2};
}

/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

HostStamp host_stamp() {
  HostStamp h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(std::thread::hardware_concurrency());
  h.isa = spiral::backend::simd::to_string(spiral::backend::simd::detect_isa());
  h.cpu = cpu_brand();
  h.l1d_bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  h.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double idle_cpu_cores(int slices, double slice_s) {
  std::vector<double> cores;
  for (int i = 0; i < slices; ++i) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
    const double wall = seconds_since(t0);
    cores.push_back((process_cpu_seconds() - cpu0) / wall);
  }
  return median(cores);
}

double fma_gflops() {
  const Kernels k = host_kernels();
  const long iters = 2'000'000;
  std::vector<double> rates;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    sink = sink + k.fma(iters);
    const double s = seconds_since(t0);
    rates.push_back(2.0 * 8.0 * k.lanes * static_cast<double>(iters) / s * 1e-9);
  }
  return percentile(rates, 100.0);
}

double read_gbs(long bytes) {
  const Kernels k = host_kernels();
  const std::size_t n = static_cast<std::size_t>(bytes) / sizeof(double);
  std::vector<double> buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = 1e-3 * static_cast<double>(i % 7);
  const long sweeps = std::max(1L, (1L << 30) / bytes);
  std::vector<double> rates;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    sink = sink + k.read(buf.data(), n, sweeps);
    const double sec = seconds_since(t0);
    rates.push_back(static_cast<double>(bytes) * static_cast<double>(sweeps) /
                    sec * 1e-9);
  }
  return percentile(rates, 100.0);
}

}  // namespace perfbench
