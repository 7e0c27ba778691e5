// The traced run: one job reassembled from the simulator's public parts
// (SyntheticGenerator, CriticalityPredictorTable, OooCore,
// sim::MemorySystem) with timing decorators on the core's three
// interfaces, replaying System::run's phase sequence.
//
// Spans at per-call boundaries (generator, predictor, memory system, core
// tick, loop step) are timed only inside sampled loop steps, with exact
// call counts kept for every call; each layer's total is then the sampled
// time scaled by count / sampled count.  Ticks and the calls inside them
// are sampled in different steps, so tick self time is the tick total
// minus the generator, predictor and memory totals.  The fast-forward
// phases are timed exactly, in the same three batched passes
// System::fastForward makes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "job.hpp"

namespace perfbench {

/// A layer boundary's accumulated cost.  `count` is exact; `ns` is the
/// probe-corrected self time of the `timed` calls among them.
struct Span {
  std::uint64_t count = 0;
  std::uint64_t timed = 0;
  double ns = 0.0;

  void add(double selfNs, std::uint64_t calls = 1) {
    ns += selfNs;
    timed += calls;
  }
  /// Estimated self time of all `count` calls.
  double estimateNs() const {
    return timed == 0 ? 0.0 : ns * static_cast<double>(count) / static_cast<double>(timed);
  }
  double nsPerCall() const { return timed == 0 ? 0.0 : ns / static_cast<double>(timed); }
};

/// Spans and counts summed over every traced job.
struct TraceTotals {
  // Exactly timed (every occurrence).
  double jobNs = 0.0;        ///< Wall time of the reassembled jobs.
  double constructNs = 0.0;  ///< Building the hierarchy, cores and decorators.
  double restoreNs = 0.0;    ///< serial: warm-state restore.
  double ffNs = 0.0;         ///< Both fast-forward phases, including children.
  double timedNs = 0.0;      ///< Both timed loops, including children.
  double collectNs = 0.0;    ///< Phase-boundary resets and result collection.
  std::uint64_t restores = 0;
  double ffSelfNs = 0.0;             ///< The fast-forward loop itself.
  Span ffGen, ffCpt, ffMem;          ///< Its three batched passes.

  // Sampled inside the timed loops.
  Span step;      ///< One visited cycle of the wake-list loop (self).
  Span tick;      ///< OooCore::tick, including the calls below.
  Span gen, cpt, mem;

  // Exact counts from the decorators, measured window only.
  std::uint64_t loads = 0;
  std::uint64_t loadsMissedL1 = 0;
  std::uint64_t loadsReachedLlc = 0;
  /// Instructions committed over both timed phases (the tick denominator).
  std::uint64_t timedCommitted = 0;

  /// Σ span self time (every layer, estimated where sampled).
  double spanSelfNs() const;
};

/// What the equivalence guard compares against the untraced System::run.
struct TracedOutcome {
  renuca::Cycle measuredCycles = 0;
  std::vector<std::uint64_t> coreCommitted;
  std::vector<std::uint64_t> bankWrites;
  std::vector<std::uint64_t> bankBitsFlipped;
  bool restoreFailed = false;
};

/// Cost of one steady_clock read, subtracted from every timed interval.
double calibrateProbeNs();

/// Runs `job` reassembled and traced, adding its spans to `totals`.
TracedOutcome runTracedJob(const Job& job, double probeNs, TraceTotals& totals);

}  // namespace perfbench
