// The repository benchmark: runs one workload of 16-core jobs on the
// paper's Table I rig, checks every job's outputs, and prints metrics by
// name with units.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// End-to-end metrics come from untraced runs (--trace 0).  --trace 1 runs
// every job untraced and then reassembled with timing spans
// (traced_job.hpp), and prints the per-layer metrics instead.
//
//   perfbench --workload paper16|warm16-long|compress16 --seed N
//             --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//
// Host time is taken outside the simulator, around calls into its public
// classes; one thread runs one simulation at a time.  End-to-end times are
// this thread's CPU time, which leaves out waits for a core on a shared host.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "job.hpp"
#include "sim/system.hpp"
#include "traced_job.hpp"

namespace perfbench {
namespace {

using renuca::CoreId;
using renuca::core::PolicyKind;
using renuca::sim::RunResult;
using renuca::sim::System;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper16|warm16-long|compress16 --seed N\n"
               "                 --seconds S --trace 0|1 [--smoke] [--workdir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        haveWorkload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

// ---- Workloads ---------------------------------------------------------------
// All jobs use the 16-core 4x4 defaultConfig() and the standard WL1/WL6
// mixes.  WL1 and WL6 differ sharply in how many instructions the measured
// window executes past its budget (cores that finish early keep running).

struct Budgets {
  std::uint64_t prewarm, warmup, refresh, measured;
};

// The benches' real ratio (EXPERIMENTS.md: 800K prewarm, 8K warm-up, 400K
// placement refresh, 30K measured per core); --smoke shrinks every phase.
constexpr Budgets kPaperBudgets{800000, 8000, 400000, 30000};
constexpr Budgets kSmokeBudgets{20000, 1000, 10000, 2000};
// warm16-long measures a long window after a restored prewarm, so the
// timed core and memory path does nearly all of the work.
constexpr std::uint64_t kLongMeasured = 200000;
constexpr std::uint64_t kSmokeLongMeasured = 5000;

std::vector<Job> makePlan(const Args& a) {
  const bool cold = a.workload == "paper16" || a.workload == "compress16";
  if (!cold && a.workload != "warm16-long") usage("unknown workload " + a.workload);
  const Budgets b = a.smoke ? kSmokeBudgets : kPaperBudgets;
  const std::vector<PolicyKind> policies =
      cold ? std::vector<PolicyKind>{PolicyKind::SNuca, PolicyKind::RNuca, PolicyKind::ReNuca}
           : std::vector<PolicyKind>{PolicyKind::ReNuca};
  std::vector<Job> plan;
  for (PolicyKind policy : policies) {
    for (const char* mixName : {"WL1", "WL6"}) {
      Job job;
      job.mix = renuca::workload::mixForCores(mixName, 16);
      job.cfg = renuca::sim::defaultConfig();
      job.cfg.seed = a.seed;
      job.cfg.policy = policy;
      job.cfg.prewarmInstrPerCore = b.prewarm;
      job.cfg.warmupInstrPerCore = b.warmup;
      job.cfg.placementRefreshInstrPerCore = b.refresh;
      job.cfg.instrPerCore = b.measured;
      if (a.workload == "compress16") job.cfg.compress = renuca::compress::Kind::BdiFpc;
      if (!cold) {
        job.cfg.instrPerCore = a.smoke ? kSmokeLongMeasured : kLongMeasured;
        job.cfg.snapshotLoadPath =
            a.workdir + "/perfbench-" + mixName + "-s" + std::to_string(a.seed) + ".ckpt";
      }
      job.label = std::string(renuca::core::toString(policy)) + "/" + mixName;
      plan.push_back(std::move(job));
    }
  }
  return plan;
}

/// Simulated instructions the job is budgeted, over all phases and cores:
/// prewarm (unless restored), timed warm-up, placement refresh (policies
/// with a predictor only) and the measured window.
std::uint64_t budgetedInstrs(const Job& job, bool hasPredictor) {
  const renuca::sim::SystemConfig& c = job.cfg;
  std::uint64_t perCore = c.warmupInstrPerCore + c.instrPerCore;
  if (c.snapshotLoadPath.empty()) perCore += c.prewarmInstrPerCore;
  if (hasPredictor) perCore += c.placementRefreshInstrPerCore;
  return perCore * c.numCores;
}

/// Writes the warm-state snapshot the job restores (prewarm fast-forward
/// only, via a cold System whose timed phases are empty).  Returns the
/// seconds System::snapshot took.
double makeSnapshot(const Job& job) {
  const std::string& path = job.cfg.snapshotLoadPath;
  renuca::sim::SystemConfig ff = job.cfg;
  ff.snapshotLoadPath.clear();
  ff.warmupInstrPerCore = 0;
  ff.placementRefreshInstrPerCore = 0;
  ff.instrPerCore = 0;
  System sys(ff, job.mix);
  const RunResult r = sys.run();
  if (!r.error.empty()) throw std::runtime_error("snapshot fast-forward failed: " + r.error);
  const std::uint64_t t0 = nowNs();
  if (!sys.snapshot(path)) throw std::runtime_error("cannot write " + path);
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

/// System::run reports a refused warm-state restore only by a warning on
/// stderr, and then runs the cold fast-forward instead.  A capture sends
/// stderr to a file for the length of one job, so that the job can be
/// failed for it; release() passes the captured text on to stderr.
class StderrCapture {
 public:
  explicit StderrCapture(std::string path) : path_(std::move(path)) {
    std::fflush(stderr);
    const int fd = open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("cannot write " + path_);
    saved_ = dup(STDERR_FILENO);
    const bool ok = saved_ >= 0 && dup2(fd, STDERR_FILENO) >= 0;
    close(fd);
    if (!ok) {
      if (saved_ >= 0) close(saved_);
      throw std::runtime_error("cannot redirect stderr");
    }
  }
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;
  ~StderrCapture() {
    if (saved_ >= 0) release();
  }

  /// Restores stderr and returns what was written to it meanwhile.
  std::string release() {
    std::fflush(stderr);
    dup2(saved_, STDERR_FILENO);
    close(saved_);
    saved_ = -1;
    std::ifstream in(path_);
    std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    std::fputs(text.c_str(), stderr);
    return text;
  }

 private:
  std::string path_;
  int saved_ = -1;
};

// ---- Output checks -------------------------------------------------------------

std::uint64_t sumOf(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

/// Empty when the job's outputs pass every check, else the first failure.
/// `log` is what the job wrote to stderr.
std::string checkJob(System& sys, const Job& job, const RunResult& r, const std::string& log) {
  if (!r.error.empty()) return "error: " + r.error;
  if (!job.cfg.snapshotLoadPath.empty() &&
      log.find("snapshot restore failed") != std::string::npos) {
    return "snapshot restore refused: the job ran the cold fast-forward";
  }
  if (r.hitMaxCycles) return "hit maxCycles";
  for (CoreId c = 0; c < r.coreCommitted.size(); ++c) {
    if (r.coreCommitted[c] < job.cfg.instrPerCore) {
      return "core " + std::to_string(c) + " short of its budget";
    }
  }
  const renuca::StatSet& st = sys.memory().stats();
  const std::uint64_t counted =
      st.get("llc_writes_critical") + st.get("llc_writes_noncritical");
  if (sumOf(r.bankWrites) != counted) {
    return "per-bank LLC writes " + std::to_string(sumOf(r.bankWrites)) +
           " != memsys.llc_writes_* " + std::to_string(counted);
  }
  return {};
}

/// FNV-1a over the deterministic RunResult fields: a speed-only change
/// must leave every job's digest unchanged.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  template <class T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void add(const std::string& s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digestOf(const RunResult& r) {
  Digest d;
  d.add(r.mixName);
  d.add(r.policy);
  d.add(r.measuredCycles);
  d.add(r.hitMaxCycles);
  d.add(r.coreCommitted);
  d.add(r.coreIpc);
  d.add(r.systemIpc);
  d.add(r.wpki);
  d.add(r.mpki);
  d.add(r.llcHitRate);
  d.add(r.bankWrites);
  d.add(r.bankMaxFrameWrites);
  d.add(r.bankLifetimeYears);
  d.add(r.bankBitsFlipped);
  d.add(r.bankMaxFrameBits);
  d.add(r.bankLifetimeYearsBits);
  d.add(r.cmpWrites);
  d.add(r.cmpRawFallbacks);
  d.add(r.cmpZeroDeltaWrites);
  d.add(r.nonCriticalLoadFrac);
  d.add(r.cptAccuracy);
  d.add(r.cptCriticalRecall);
  d.add(r.nonCriticalFillFrac);
  d.add(r.nonCriticalWriteFrac);
  d.add(r.avgNocLatencyCycles);
  d.add(r.dramRowHitRate);
  return d.value();
}

// ---- Per-job exact counts (public accessors; free in untraced runs) ----------

struct Counts {
  std::uint64_t jobs = 0;
  std::uint64_t executed = 0, budget = 0;
  std::uint64_t robStallCycles = 0;
  std::uint64_t predictorJobs = 0;
  double cptAccuracy = 0.0, nonCriticalFillFrac = 0.0;
  std::uint64_t tlbTranslations = 0, tlbMisses = 0;
  std::uint64_t llcAccesses = 0, llcMisses = 0, llcWrites = 0;
  std::uint64_t nocPackets = 0, dramAccesses = 0;
  double nocLatency = 0.0, dramRowHitRate = 0.0;
  std::uint64_t cmpWrites = 0, cmpRawFallbacks = 0, bitsFlipped = 0;
  double bankWriteCov = 0.0;

  void add(System& sys, const RunResult& r) {
    ++jobs;
    const std::uint32_t cores = sys.config().numCores;
    executed += sumOf(r.coreCommitted);
    budget += std::uint64_t{cores} * sys.config().instrPerCore;
    renuca::sim::MemorySystem& mem = sys.memory();
    for (CoreId c = 0; c < cores; ++c) {
      robStallCycles += sys.core(c).stats().robHeadStallCycles;
      const renuca::StatSet& tlb = mem.tlbOf(c).stats();
      tlbTranslations += tlb.get("hits") + tlb.get("misses");
      tlbMisses += tlb.get("misses");
      llcAccesses += mem.coreCounters(c).llcDemandAccesses;
      llcMisses += mem.coreCounters(c).llcDemandMisses;
    }
    if (sys.predictor(0) != nullptr) {
      ++predictorJobs;
      cptAccuracy += r.cptAccuracy;
      nonCriticalFillFrac += r.nonCriticalFillFrac;
    }
    llcWrites += sumOf(r.bankWrites);
    nocPackets += mem.mesh().stats().get("packets");
    nocLatency += r.avgNocLatencyCycles;
    dramAccesses += mem.dram().stats().get("reads") + mem.dram().stats().get("writes");
    dramRowHitRate += r.dramRowHitRate;
    cmpWrites += r.cmpWrites;
    cmpRawFallbacks += r.cmpRawFallbacks;
    bitsFlipped += sumOf(r.bankBitsFlipped);
    double mean = 0.0, var = 0.0;
    for (std::uint64_t w : r.bankWrites) mean += static_cast<double>(w);
    mean /= static_cast<double>(r.bankWrites.size());
    for (std::uint64_t w : r.bankWrites) {
      var += (static_cast<double>(w) - mean) * (static_cast<double>(w) - mean);
    }
    var /= static_cast<double>(r.bankWrites.size());
    bankWriteCov += mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Host metadata ---------------------------------------------------------------

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hostJson() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"host\": {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"lto\": %s, \"threads\": 1}}",
                jsonEscape(cpuModel()).c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false");
  return buf;
}

// ---- Result ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu of %llu jobs)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  // ---- Set-up, repeated: the median is setup_s. ----
  // A set-up is everything before the first job: the plan, one System
  // built per job (so a bad configuration fails before any timing, and
  // work a change moves into System construction shows here too) and, on
  // warm16-long, the warm-state snapshots its jobs restore.  A cold
  // workload's set-up takes milliseconds: single set-ups vary 2x with host
  // memory contention, and they get faster over the first second of
  // repeats as the allocator settles.  So set-ups repeat until kMinSetupS
  // seconds of CPU time have passed (and at least kMinSetups times).
  constexpr std::size_t kMinSetups = 3;
  constexpr double kMinSetupS = 3.0;
  std::vector<Job> plan;
  std::vector<double> setupS, snapshotS;
  for (double total = 0.0; setupS.size() < kMinSetups || total < kMinSetupS;
       total += setupS.back()) {
    const std::uint64_t t0 = cpuNs();
    plan = makePlan(args);
    double snap = 0.0;
    for (const Job& job : plan) {
      if (job.cfg.snapshotLoadPath.empty()) {
        System sys(job.cfg, job.mix);
      } else {
        snap += makeSnapshot(job);
      }
    }
    setupS.push_back(static_cast<double>(cpuNs() - t0) * 1e-9);
    snapshotS.push_back(snap);
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d smoke=%d jobs/pass=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.smoke ? 1 : 0, plan.size());
  std::printf("%s\n", hostJson().c_str());

  const double probeNs = args.trace ? calibrateProbeNs() : 0.0;
  std::vector<std::uint64_t> firstDigest(plan.size(), 0);
  std::vector<std::vector<double>> jobS(plan.size());  // [job][pass]
  std::vector<std::uint64_t> jobBudget(plan.size(), 0);
  std::vector<double> ipc, minLifetime;
  Counts counts;
  TraceTotals totals;
  double untracedWallNs = 0.0;  // the traced spans are wall time
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  const std::string logPath = args.workdir + "/perfbench-stderr.log";

  // ---- Body: whole passes over the plan, as many as best fill --seconds. ----
  const std::uint64_t bodyStart = nowNs();
  for (int pass = 0;; ++pass) {
    for (std::size_t j = 0; j < plan.size(); ++j) {
      const Job& job = plan[j];
      ++attempted;
      // A job's time is the CPU time of this thread (cpuNs) from
      // construction to destruction of its System; the output checks
      // between run() and teardown are not timed.  Wall time is printed
      // beside it.
      StderrCapture capture(logPath);
      const std::uint64_t w0 = nowNs();
      const std::uint64_t t0 = cpuNs();
      auto sys = std::make_unique<System>(job.cfg, job.mix);
      const RunResult r = sys->run();
      const std::uint64_t t1 = cpuNs();
      const std::uint64_t w1 = nowNs();
      const std::string log = capture.release();
      jobBudget[j] = budgetedInstrs(job, sys->predictor(0) != nullptr);
      std::string failure = checkJob(*sys, job, r, log);
      const std::uint64_t digest = digestOf(r);
      if (failure.empty() && pass > 0 && digest != firstDigest[j]) {
        failure = "digest differs from pass 0: simulation is not deterministic";
      }
      if (pass == 0) {
        firstDigest[j] = digest;
        ipc.push_back(r.systemIpc);
        minLifetime.push_back(job.cfg.compress == renuca::compress::Kind::None
                                  ? r.minBankLifetime()
                                  : r.minBankLifetimeBits());
        counts.add(*sys, r);
      }
      const std::uint64_t w2 = nowNs();
      const std::uint64_t t2 = cpuNs();
      sys.reset();
      const double seconds = static_cast<double>(t1 - t0 + (cpuNs() - t2)) * 1e-9;
      const std::uint64_t wallNs = w1 - w0 + (nowNs() - w2);
      jobS[j].push_back(seconds);
      untracedWallNs += static_cast<double>(wallNs);

      if (args.trace && failure.empty()) {
        const TracedOutcome t = runTracedJob(job, probeNs, totals);
        if (t.restoreFailed) {
          failure = "traced run could not restore " + job.cfg.snapshotLoadPath;
        } else if (t.measuredCycles != r.measuredCycles || t.coreCommitted != r.coreCommitted ||
                   t.bankWrites != r.bankWrites || t.bankBitsFlipped != r.bankBitsFlipped) {
          failure = "traced reassembly diverged from System::run";
        }
      }
      std::printf("job %-12s pass %d %8.3f s cpu %8.3f s wall digest %016llx %s\n",
                  job.label.c_str(), pass, seconds, static_cast<double>(wallNs) * 1e-9,
                  static_cast<unsigned long long>(digest),
                  failure.empty() ? "ok" : ("FAILED: " + failure).c_str());
      if (!failure.empty()) {
        ++failed;
        correct = false;
      }
    }
    // Stop where the run ends closest to --seconds.
    const double elapsed = static_cast<double>(nowNs() - bodyStart) * 1e-9;
    if (elapsed + 0.5 * elapsed / (pass + 1) >= args.seconds) break;
  }
  std::fflush(stdout);

  for (const Job& job : plan) {
    if (!job.cfg.snapshotLoadPath.empty()) std::remove(job.cfg.snapshotLoadPath.c_str());
  }
  std::remove(logPath.c_str());

  Digest planDigest;
  planDigest.add(firstDigest);
  std::printf("plan digest %016llx\n", static_cast<unsigned long long>(planDigest.value()));

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double n = static_cast<double>(counts.jobs);
  std::vector<Metric> m;
  if (!args.trace) {
    // Host memory contention from other processes adds bursts of time to
    // single jobs, so each job is timed by its median over the passes, and
    // a pass by the sum of those.
    std::uint64_t passBudget = 0;
    double passS = 0.0;
    std::vector<double> jobMedianS;
    for (std::size_t j = 0; j < plan.size(); ++j) {
      passBudget += jobBudget[j];
      jobMedianS.push_back(median(jobS[j]));
      passS += jobMedianS.back();
    }
    double ipcMean = 0.0;
    for (double v : ipc) ipcMean += v / static_cast<double>(ipc.size());
    m = {
        {"sim_minstr_per_s", static_cast<double>(passBudget) / passS * 1e-6, "Minstr/s"},
        {"job_s.p50", median(jobMedianS), "s"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"sim_ipc", ipcMean, "instr/cyc"},
        {"min_lifetime_y", *std::min_element(minLifetime.begin(), minLifetime.end()), "y"},
    };
    std::printf("job_s.p50 over %zu jobs x %zu passes\n", plan.size(), jobS[0].size());
  } else {
    const double tracedJobs = static_cast<double>(attempted);
    const TraceTotals& t = totals;
    m = {
        {"sim.executed_per_budget", ratio(counts.executed, counts.budget), "ratio"},
        {"cpu.ticks_per_instr", ratio(t.tick.count, t.timedCommitted), "ticks/instr"},
        {"cpu.rob_stall_cycles", ratio(counts.robStallCycles, n), "cyc/job"},
        {"core.cpt_accuracy", ratio(counts.cptAccuracy, counts.predictorJobs), "ratio"},
        {"core.noncritical_fill_frac", ratio(counts.nonCriticalFillFrac, counts.predictorJobs),
         "ratio"},
        {"tlb.translations", ratio(counts.tlbTranslations, n), "count/job"},
        {"tlb.miss_rate", ratio(counts.tlbMisses, counts.tlbTranslations), "ratio"},
        {"mem.l1_hit_rate", 1.0 - ratio(t.loadsMissedL1, t.loads), "ratio"},
        {"mem.l2_hit_rate", 1.0 - ratio(t.loadsReachedLlc, t.loadsMissedL1), "ratio"},
        {"mem.llc_hit_rate", 1.0 - ratio(counts.llcMisses, counts.llcAccesses), "ratio"},
        {"mem.llc_writes", ratio(counts.llcWrites, n), "count/job"},
        {"noc.packets", ratio(counts.nocPackets, n), "count/job"},
        {"noc.avg_latency_cyc", ratio(counts.nocLatency, n), "cyc"},
        {"dram.accesses", ratio(counts.dramAccesses, n), "count/job"},
        {"dram.row_hit_rate", ratio(counts.dramRowHitRate, n), "ratio"},
        {"compress.writes", ratio(counts.cmpWrites, n), "count/job"},
        {"compress.raw_fallback_frac", ratio(counts.cmpRawFallbacks, counts.cmpWrites), "ratio"},
        {"compress.bits_per_write", ratio(counts.bitsFlipped, counts.cmpWrites), "bits"},
        {"rram.bank_write_cov", ratio(counts.bankWriteCov, n), "ratio"},
        {"sim.ff_s", t.ffNs * 1e-9 / tracedJobs, "s/job"},
        {"sim.timed_s", t.timedNs * 1e-9 / tracedJobs, "s/job"},
        {"sim.memory_system.ff_ns_per_access", t.ffMem.nsPerCall(), "ns"},
        {"sim.memory_system.timed_ns_per_access", t.mem.nsPerCall(), "ns"},
        {"cpu.tick_self_ns_per_instr",
         ratio(t.tick.estimateNs() - t.gen.estimateNs() - t.cpt.estimateNs() -
                   t.mem.estimateNs(),
               t.timedCommitted),
         "ns"},
        {"workload.gen_ns_per_instr",
         ratio(t.ffGen.ns + t.gen.estimateNs(), t.ffGen.count + t.gen.count), "ns"},
        {"core.cpt_ns_per_call",
         ratio(t.ffCpt.ns + t.cpt.estimateNs(), t.ffCpt.count + t.cpt.count), "ns"},
        {"serial.snapshot_s", ratio(median(snapshotS), plan.size() * !plan[0].cfg.snapshotLoadPath.empty()),
         "s"},
        {"serial.restore_s", ratio(t.restoreNs * 1e-9, t.restores), "s"},
        {"sim.trace_fidelity", ratio(t.spanSelfNs(), t.jobNs), "ratio"},
        {"sim.trace_overhead", ratio(t.jobNs, untracedWallNs), "ratio"},
    };
    std::printf("trace: probe %.1f ns per clock read; %llu of %llu loop steps sampled\n",
                probeNs, static_cast<unsigned long long>(t.step.timed),
                static_cast<unsigned long long>(t.step.count));
  }
  printResult(correct, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
