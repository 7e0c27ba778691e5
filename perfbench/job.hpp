// What one benchmark job is, shared by the untraced runs (main.cpp) and
// the traced reassembly (traced_job.cpp).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "sim/config.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

/// One simulation of the plan: a 16-core Table I configuration and its mix.
/// A warm job restores `cfg.snapshotLoadPath` instead of running its
/// prewarm fast-forward; a cold job leaves that path empty.
struct Job {
  std::string label;
  renuca::sim::SystemConfig cfg;
  renuca::workload::WorkloadMix mix;
};

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// On-CPU time of the calling thread.  Unlike wall time it leaves out the
/// time the thread waits for a core, whether for other processes or for the
/// hypervisor running another guest (steal time).
inline std::uint64_t cpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
