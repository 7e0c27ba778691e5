#include "traced_job.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "core/cpt.hpp"
#include "cpu/core.hpp"
#include "serial/archive.hpp"
#include "serial/checkpointable.hpp"
#include "sim/fingerprint.hpp"
#include "sim/memory_system.hpp"
#include "workload/app_profile.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using renuca::Addr;
using renuca::CoreId;
using renuca::Cycle;
using renuca::InstrKind;
using renuca::kNoCycle;
namespace cpu = renuca::cpu;
namespace sim = renuca::sim;
namespace workload = renuca::workload;

double TraceTotals::spanSelfNs() const {
  // The tick total holds the generator, predictor and memory spans.
  return constructNs + restoreNs + collectNs + ffSelfNs + ffGen.ns + ffCpt.ns +
         ffMem.ns + step.estimateNs() + tick.estimateNs();
}

double calibrateProbeNs() {
  // Best of several batches: the cheapest batch is the read's own cost,
  // the others carry scheduler noise.
  constexpr int kReads = 20000;
  double best = 1e9;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < kReads; ++i) nowNs();
    best = std::min(best, static_cast<double>(nowNs() - t0) / kReads);
  }
  return best;
}

namespace {

// Timing rule for every span below: a steady_clock read costs `probe` ns,
// and an interval [a, b] contains the cost of one of its two reads plus
// every read made inside it.  A span's self time is therefore
//   raw - Σ raw(children) - probe * (1 + reads inside it that no child
//   interval contains),
// which is what each formula below spells out for its own shape.
//
// A sampled loop step times either its ticks or the decorator calls inside
// them, never both, so no timed tick carries its children's probes: a
// tick's self time is the estimated tick total minus the children's
// estimated totals.

/// Times SyntheticGenerator::next (dispatch's one call per instruction).
class TimedSource final : public workload::InstructionSource {
 public:
  TimedSource(workload::InstructionSource& inner, const bool& timing, Span& span, double probeNs)
      : inner_(inner), timing_(timing), span_(span), probeNs_(probeNs) {}

  workload::TraceRecord next() override {
    ++span_.count;
    if (!timing_) return inner_.next();
    const std::uint64_t t0 = nowNs();
    workload::TraceRecord r = inner_.next();
    span_.add(static_cast<double>(nowNs() - t0) - probeNs_);
    return r;
  }
  bool exhausted() const override { return inner_.exhausted(); }

 private:
  workload::InstructionSource& inner_;
  const bool& timing_;
  Span& span_;
  double probeNs_;
};

/// Times the CPT's issue-time lookups and commit-time training.
class TimedPredictor final : public cpu::CriticalityPredictor {
 public:
  TimedPredictor(cpu::CriticalityPredictor& inner, const bool& timing, Span& span, double probeNs)
      : inner_(inner), timing_(timing), span_(span), probeNs_(probeNs) {}

  bool predict(std::uint64_t pc) override {
    return timed([&] { return inner_.predict(pc); });
  }
  bool hasEntry(std::uint64_t pc) const override {
    return timed([&] { return inner_.hasEntry(pc); });
  }
  bool train(std::uint64_t pc, bool stalledRobHead) override {
    return timed([&] { return inner_.train(pc, stalledRobHead); });
  }

 private:
  template <class F>
  bool timed(F&& f) const {
    ++span_.count;
    if (!timing_) return f();
    const std::uint64_t t0 = nowNs();
    const bool v = f();
    span_.add(static_cast<double>(nowNs() - t0) - probeNs_);
    return v;
  }

  cpu::CriticalityPredictor& inner_;
  const bool& timing_;
  Span& span_;
  double probeNs_;
};

/// Times sim::MemorySystem::load/store from the cores, and counts where
/// each demand load was served: past the L1 (LoadResult::missedL1) and at
/// the LLC (the core's LLC demand-access counter moved).
class TimedMemory final : public cpu::MemorySystem {
 public:
  TimedMemory(sim::MemorySystem& inner, const bool& timing, Span& span, double probeNs)
      : inner_(inner), timing_(timing), span_(span), probeNs_(probeNs) {}

  LoadResult load(CoreId core, Addr vaddr, std::uint64_t pc, Cycle issueAt,
                  bool predictedCritical) override {
    ++span_.count;
    ++loads;
    const std::uint64_t llcBefore = inner_.coreCounters(core).llcDemandAccesses;
    LoadResult r;
    if (timing_) {
      const std::uint64_t t0 = nowNs();
      r = inner_.load(core, vaddr, pc, issueAt, predictedCritical);
      span_.add(static_cast<double>(nowNs() - t0) - probeNs_);
    } else {
      r = inner_.load(core, vaddr, pc, issueAt, predictedCritical);
    }
    if (r.missedL1) ++loadsMissedL1;
    if (inner_.coreCounters(core).llcDemandAccesses != llcBefore) ++loadsReachedLlc;
    return r;
  }

  Cycle store(CoreId core, Addr vaddr, std::uint64_t pc, Cycle issueAt) override {
    ++span_.count;
    if (!timing_) return inner_.store(core, vaddr, pc, issueAt);
    const std::uint64_t t0 = nowNs();
    const Cycle done = inner_.store(core, vaddr, pc, issueAt);
    span_.add(static_cast<double>(nowNs() - t0) - probeNs_);
    return done;
  }

  std::uint64_t loads = 0;
  std::uint64_t loadsMissedL1 = 0;
  std::uint64_t loadsReachedLlc = 0;

 private:
  sim::MemorySystem& inner_;
  const bool& timing_;
  Span& span_;
  double probeNs_;
};

/// One job reassembled from public parts.  Mirrors System's constructor
/// and System::run for the plan's configurations (no fault model, epochs,
/// tracer or profiler); the equivalence guard in main.cpp holds it to
/// System::run's results.
class TracedJob {
 public:
  TracedJob(const Job& job, double probeNs, TraceTotals& totals)
      : job_(job), cfg_(job.cfg), probeNs_(probeNs), t_(totals) {
    const std::uint64_t t0 = nowNs();
    mem_ = std::make_unique<sim::MemorySystem>(cfg_);
    memDecor_ = std::make_unique<TimedMemory>(*mem_, timeCalls_, t_.mem, probeNs_);
    const bool wantPredictor = mem_->policy().needsPredictor() || cfg_.forcePredictor;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
      const workload::AppProfile& prof = workload::profileByName(job.mix.appNames[c]);
      gens_.push_back(std::make_unique<workload::SyntheticGenerator>(
          prof, cfg_.seed * 1000003ull + c));
      srcDecor_.push_back(
          std::make_unique<TimedSource>(*gens_.back(), timeCalls_, t_.gen, probeNs_));
      cpts_.push_back(wantPredictor
                          ? std::make_unique<renuca::core::CriticalityPredictorTable>(cfg_.cpt)
                          : nullptr);
      cptDecor_.push_back(
          cpts_.back() ? std::make_unique<TimedPredictor>(*cpts_.back(), timeCalls_, t_.cpt,
                                                          probeNs_)
                       : nullptr);
      cores_.push_back(std::make_unique<cpu::OooCore>(cfg_.coreCfg, c, srcDecor_.back().get(),
                                                      memDecor_.get(), cptDecor_.back().get(),
                                                      cfg_.instrPerCore));
      cores_.back()->setRunPastBudget(true);
    }
    if (cfg_.compress != renuca::compress::Kind::None) {
      std::vector<renuca::compress::Compressibility> perCore;
      for (CoreId c = 0; c < cfg_.numCores; ++c) {
        perCore.push_back(workload::profileByName(job.mix.appNames[c]).compressibility);
      }
      mem_->setCompressibility(std::move(perCore));
    }
    wake_.assign(cfg_.numCores, 0);
    lastTickIter_.assign(cfg_.numCores, 0);
    headBlockedLoad_.assign(cfg_.numCores, 0);
    t_.constructNs += static_cast<double>(nowNs() - t0);
  }

  TracedOutcome run() {
    TracedOutcome out;
    Cycle now = 0;
    if (!cfg_.snapshotLoadPath.empty()) {
      const std::uint64_t t0 = nowNs();
      const bool ok = restore(cfg_.snapshotLoadPath);
      t_.restoreNs += static_cast<double>(nowNs() - t0);
      ++t_.restores;
      if (!ok) {
        out.restoreFailed = true;
        return out;
      }
    } else {
      fastForward(cfg_.prewarmInstrPerCore);
    }

    now = timedLoop(now, [&](Cycle at) {
      return allReached(cfg_.warmupInstrPerCore) || at >= cfg_.maxCycles;
    });

    if (cpts_[0] != nullptr) fastForward(cfg_.placementRefreshInstrPerCore);

    std::uint64_t t0 = nowNs();
    settleSkippedStats();
    for (auto& core : cores_) {
      t_.timedCommitted += core->stats().committed;
      core->resetStats();
    }
    mem_->resetMeasurement();
    const Cycle measureStart = now;
    const std::uint64_t loads0 = memDecor_->loads;
    const std::uint64_t missedL10 = memDecor_->loadsMissedL1;
    const std::uint64_t reachedLlc0 = memDecor_->loadsReachedLlc;
    t_.collectNs += static_cast<double>(nowNs() - t0);

    // System::run's measured loop ends at the cycle cap; the guard then
    // sees hitMaxCycles through measuredCycles.
    now = timedLoop(now, [&](Cycle at) {
      return allReached(cfg_.instrPerCore) || at - measureStart >= cfg_.maxCycles;
    });

    t0 = nowNs();
    settleSkippedStats();
    out.measuredCycles = now - measureStart;
    for (auto& core : cores_) {
      out.coreCommitted.push_back(core->stats().committed);
      t_.timedCommitted += core->stats().committed;
    }
    for (renuca::BankId b = 0; b < mem_->numBanks(); ++b) {
      const renuca::mem::CacheBank& bank = mem_->llcBank(b);
      out.bankWrites.push_back(bank.totalWrites());
      if (mem_->compressionEnabled()) {
        out.bankBitsFlipped.push_back(bank.compressionStats().bitsFlipped);
      }
    }
    t_.loads += memDecor_->loads - loads0;
    t_.loadsMissedL1 += memDecor_->loadsMissedL1 - missedL10;
    t_.loadsReachedLlc += memDecor_->loadsReachedLlc - reachedLlc0;
    t_.collectNs += static_cast<double>(nowNs() - t0);
    return out;
  }

 private:
  /// System::restoreFrom, step for step, so the restore can be timed.
  bool restore(const std::string& path) {
    renuca::serial::ArchiveReader ar(path);
    if (!ar.ok()) return false;
    for (const renuca::serial::ArchiveReader::SectionInfo& s : ar.sections()) {
      if (!ar.openSection(s.name)) return false;
    }
    if (!ar.openSection("meta")) return false;
    const std::uint64_t fp = ar.getU64();
    ar.getString();
    const std::uint32_t cores = ar.getU32();
    const bool hasCpt = ar.getBool();
    if (!ar.ok() || fp != sim::warmStateFingerprint(cfg_, job_.mix) ||
        cores != cfg_.numCores || hasCpt != (cpts_[0] != nullptr)) {
      return false;
    }
    if (!mem_->loadCheckpoint(ar)) return false;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
      if (!renuca::serial::loadComponent(ar, "gen" + std::to_string(c), *gens_[c])) {
        return false;
      }
      if (cpts_[c] &&
          !renuca::serial::loadComponent(ar, "cpt" + std::to_string(c), *cpts_[c])) {
        return false;
      }
    }
    return true;
  }

  /// System::fastForward: per-core chunks in three batched passes, each
  /// timed exactly (four clock reads per chunk and core).
  void fastForward(std::uint64_t instrPerCore) {
    if (instrPerCore == 0) return;
    const std::uint64_t f0 = nowNs();
    double childRaw = 0.0;
    std::uint64_t chunkCores = 0;
    mem_->setWarmupMode(true);
    constexpr std::uint64_t kChunk = 4096;
    std::vector<workload::TraceRecord> recs(kChunk);
    std::vector<unsigned char> crit(kChunk);
    for (std::uint64_t done = 0; done < instrPerCore; done += kChunk) {
      const std::uint64_t n = std::min(kChunk, instrPerCore - done);
      for (CoreId c = 0; c < cfg_.numCores; ++c) {
        const std::uint64_t a = nowNs();
        gens_[c]->nextBatch(recs.data(), n);
        const std::uint64_t b = nowNs();
        std::uint64_t loads = 0;
        if (cpts_[c]) {
          for (std::size_t i = 0; i < n; ++i) {
            crit[i] = recs[i].kind == InstrKind::Load && cpts_[c]->predict(recs[i].pc);
          }
        }
        const std::uint64_t d = nowNs();
        std::uint64_t accesses = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const workload::TraceRecord& rec = recs[i];
          if (rec.kind == InstrKind::Load) {
            mem_->load(c, rec.vaddr, rec.pc, 0, cpts_[c] != nullptr && crit[i] != 0);
            ++loads;
            ++accesses;
          } else if (rec.kind == InstrKind::Store) {
            mem_->store(c, rec.vaddr, rec.pc, 0);
            ++accesses;
          }
        }
        const std::uint64_t e = nowNs();
        t_.ffGen.count += n;
        t_.ffGen.add(static_cast<double>(b - a) - probeNs_, n);
        if (cpts_[c]) {
          t_.ffCpt.count += loads;
          t_.ffCpt.add(static_cast<double>(d - b) - probeNs_, loads);
        } else {
          // The predictor pass is empty; its interval still holds a read.
          t_.ffSelfNs += static_cast<double>(d - b) - probeNs_;
        }
        t_.ffMem.count += accesses;
        t_.ffMem.add(static_cast<double>(e - d) - probeNs_, accesses);
        childRaw += static_cast<double>(e - a);
        ++chunkCores;
      }
    }
    mem_->setWarmupMode(false);
    const std::uint64_t raw = nowNs() - f0;
    t_.ffNs += static_cast<double>(raw);
    // Reads inside: four per chunk and core; the three children's
    // intervals hold three of them, [a, b)'s opening read is the fourth.
    t_.ffSelfNs += static_cast<double>(raw) - childRaw -
                   probeNs_ * static_cast<double>(1 + chunkCores);
  }

  bool allReached(std::uint64_t committed) const {
    for (const auto& core : cores_) {
      if (core->stats().committed < committed) return false;
    }
    return true;
  }

  /// System::run's timed loop over System::stepCores (wake-list version).
  /// 1 in 16 visited cycles times the step and each tick, and another 1 in
  /// 16 times every decorator call.  `done` is the loop's exit test.
  template <class Done>
  Cycle timedLoop(Cycle now, Done done) {
    const std::uint64_t l0 = nowNs();
    for (;;) {
      // xorshift64: the sample pattern never aligns with periodic cores.
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const bool sample = (rng_ & 15) == 0;
      timeCalls_ = (rng_ & 15) == 1;
      const std::uint64_t s0 = sample ? nowNs() : 0;
      if (done(now)) break;
      ++loopIter_;
      double ticksRaw = 0.0;
      std::uint32_t ticks = 0;
      for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (wake_[c] > now) continue;
        cpu::OooCore& core = *cores_[c];
        const std::uint64_t skipped = loopIter_ - lastTickIter_[c] - 1;
        if (skipped != 0 && headBlockedLoad_[c] != 0) core.addSkippedHeadStallCycles(skipped);
        ++t_.tick.count;
        if (sample) {
          const std::uint64_t k0 = nowNs();
          core.tick(now);
          const std::uint64_t raw = nowNs() - k0;
          t_.tick.add(static_cast<double>(raw) - probeNs_);
          ticksRaw += static_cast<double>(raw);
          ++ticks;
        } else {
          core.tick(now);
        }
        lastTickIter_[c] = loopIter_;
        wake_[c] = core.nextEventCycle(now);
        headBlockedLoad_[c] = core.headBlockedLoadAfterTick(now) ? 1 : 0;
      }
      Cycle next = kNoCycle;
      for (Cycle w : wake_) next = std::min(next, w);
      now = (next == kNoCycle || next <= now) ? now + 1 : next;
      ++t_.step.count;
      if (sample) {
        t_.step.add(static_cast<double>(nowNs() - s0) - ticksRaw - probeNs_ * (1.0 + ticks));
      }
    }
    timeCalls_ = false;
    t_.timedNs += static_cast<double>(nowNs() - l0);
    return now;
  }

  void settleSkippedStats() {
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
      const std::uint64_t skipped = loopIter_ - lastTickIter_[c];
      if (skipped != 0 && headBlockedLoad_[c] != 0) {
        cores_[c]->addSkippedHeadStallCycles(skipped);
      }
      lastTickIter_[c] = loopIter_;
    }
  }

  const Job& job_;
  const sim::SystemConfig& cfg_;
  double probeNs_;
  TraceTotals& t_;
  bool timeCalls_ = false;  ///< The decorators' sampling switch.
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;

  std::unique_ptr<sim::MemorySystem> mem_;
  std::unique_ptr<TimedMemory> memDecor_;
  std::vector<std::unique_ptr<workload::SyntheticGenerator>> gens_;
  std::vector<std::unique_ptr<TimedSource>> srcDecor_;
  std::vector<std::unique_ptr<renuca::core::CriticalityPredictorTable>> cpts_;
  std::vector<std::unique_ptr<TimedPredictor>> cptDecor_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;

  std::vector<Cycle> wake_;
  std::vector<std::uint64_t> lastTickIter_;
  std::vector<unsigned char> headBlockedLoad_;
  std::uint64_t loopIter_ = 0;
};

}  // namespace

TracedOutcome runTracedJob(const Job& job, double probeNs, TraceTotals& totals) {
  const std::uint64_t t0 = nowNs();
  auto traced = std::make_unique<TracedJob>(job, probeNs, totals);
  TracedOutcome out = traced->run();
  const std::uint64_t t1 = nowNs();
  traced.reset();
  const std::uint64_t t2 = nowNs();
  totals.collectNs += static_cast<double>(t2 - t1);
  totals.jobNs += static_cast<double>(t2 - t0);
  return out;
}

}  // namespace perfbench
