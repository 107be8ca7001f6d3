// Host description and host-level measurements: the metadata stamped on
// every result, process CPU and memory accounting, and the roofline
// ceilings (FMA peak, L1 and L2 read bandwidth) the traced run reports
// next to the library's own numbers.
#pragma once

#include <string>

namespace perfbench {

struct HostStamp {
  int nproc = 0;
  std::string isa;      ///< backend::simd::detect_isa()
  std::string cpu;      ///< CPUID brand string
  long l1d_bytes = 0;
  long l2_bytes = 0;
  long l3_bytes = 0;
  std::string compiler;
};

[[nodiscard]] HostStamp host_stamp();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Process CPU-seconds per wall-second while the calling thread sleeps:
/// the CPU the process burns on its own while nothing is asked of it.
/// The median over `slices` consecutive sleeps of `slice_s` seconds, so a
/// moment in which the host runs other guests' work moves it less.
[[nodiscard]] double idle_cpu_cores(int slices, double slice_s);

/// One core's double-precision FMA throughput, in GFlop/s, using the
/// widest vector ISA the host supports.
[[nodiscard]] double fma_gflops();

/// One core's read bandwidth over a buffer of `bytes`, in GB/s.
[[nodiscard]] double read_gbs(long bytes);

}  // namespace perfbench
