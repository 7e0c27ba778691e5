// renucad: the resident simulation service.
//
// One daemon holds what every cold CLI invocation pays for again and again
// — the warm thread pool, the on-disk warm-state snapshot cache, the
// telemetry sinks — and clients stream jobs at it over a Unix-domain
// socket (TCP optional).  Three threads of control:
//
//  * the event loop (run(), the caller's thread): the socket reactor
//    (server/reactor.hpp) owns every socket, session buffer and listener;
//    the server is its Role.  It validates job specs with the strict key
//    registry, admits jobs into a *bounded* queue (full -> explicit BUSY
//    reply, never unbounded memory), answers STATS/METRICS, and each round
//    hands executor output to the sessions it belongs to;
//  * the executor thread: drains the queue in batches into a SweepPlan and
//    runs it on the resident pool via the existing runPlan() — so queued
//    jobs from *different clients* are grouped by warm-state fingerprint
//    and share post-fast-forward snapshots exactly like a local
//    snapshot_dir= sweep.  Per-job completion streams Status + Report
//    frames back through the loop;
//  * the pool workers inside runPlan (common/thread_pool.hpp).
//
// Fleet worker mode: with coordinatorAddr set, the server additionally
// dials a renuca-coord coordinator (reconnecting with exponential backoff
// whenever the link drops), REGISTERs itself (name, threads, lease
// capacity), answers LEASE grants exactly like SUBMITs — the lease's
// fleet-global job id rides every Status/Report frame back so the
// coordinator can commit results at-most-once — and HEARTBEATs its queue
// depth and queue-wait p50 every heartbeatMs.  A worker needs no listener
// of its own in this mode; killing it mid-job simply drops the link and
// the coordinator re-dispatches its leases.
//
// Determinism: a job's result depends only on its spec (each System seeds
// itself from its config), so a report served over the wire is
// byte-identical — modulo the provenance fields — to the same job run via
// a local runPlan.  tests/test_server holds this against 8 concurrent
// clients.
//
// Shutdown: requestStop() is async-signal-safe (renucad calls it from the
// SIGINT/SIGTERM handlers).  The server stops listening, rejects new
// submissions with BUSY, finishes every admitted job, flushes every
// report, and run() returns 0.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "server/protocol.hpp"
#include "server/reactor.hpp"
#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace renuca::server {

/// Socket settings (listeners, idle timeout, frame and write-buffer
/// bounds) come from ReactorConfig.
struct ServerConfig : ReactorConfig {
  /// Resident sweep workers (0 = one per hardware thread).
  unsigned jobs = 0;
  /// Admission bound: jobs waiting for the executor.  A full queue makes
  /// SUBMIT answer BUSY.
  std::size_t maxQueue = 64;
  /// Warm-start snapshot directory shared across all clients' jobs
  /// (sim/sweep.hpp's warmStartDir); empty = cold runs.
  std::string snapshotDir;
  /// Job-lifecycle trace output (trace_json= on renucad): one span per
  /// queued/admitted/executing stage per job, tid = job id, timestamps in
  /// microseconds since server start.  Empty = no tracing.
  std::string traceJsonPath;

  // Fleet worker mode (all optional).
  /// Coordinator address list ("unix:/path", a bare socket path, or
  /// "host:port"; comma-separated for failover).  Empty = standalone.
  std::string coordinatorAddr;
  /// Name this worker registers under (default "w<pid>").
  std::string workerName;
  /// Heartbeat cadence toward the coordinator.
  int heartbeatMs = 1000;
  /// Reconnect backoff cap after the coordinator link drops.
  int reconnectMaxMs = 10000;
};

class Server : private Reactor::Role {
 public:
  explicit Server(ServerConfig cfg);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners.  False (with a log line) when a
  /// socket cannot be set up.  Optional: a server can also run purely on
  /// adopted connections.
  bool listen();

  /// Hands the server one end of an already-connected stream socket (the
  /// in-process test harness uses socketpair()).  Thread-safe; callable
  /// before or during run().
  void adoptConnection(int fd);

  /// Like adoptConnection, but the peer is a coordinator: the server sends
  /// a REGISTER frame and serves LEASE grants on it (the in-process fleet
  /// tests wire worker and coordinator with socketpair()).  At most one
  /// coordinator session is live at a time.
  void adoptCoordinator(int fd);

  /// Runs the event loop until a stop request drains.  Returns 0 on a
  /// clean drain.
  int run();

  /// Begins a graceful drain.  Async-signal-safe (an atomic store and a
  /// pipe write), so signal handlers may call it directly.
  void requestStop();

  unsigned workerCount() const { return pool_->threadCount(); }

 private:
  using Clock = Reactor::Clock;
  using Session = Reactor::Session;

  /// Reactor::open kind of a coordinator link (0 = a client).
  static constexpr int kCoordinatorLink = 1;

  /// The server's half of a session.
  struct Peer {
    std::size_t inflight = 0;  ///< Jobs admitted and not yet reported.
    bool coordinator = false;  ///< Fleet link: exempt from idle reaping.
  };

  /// One admitted job, with everything needed to route its results back.
  struct QueuedJob {
    std::uint64_t jobId = 0;
    /// Id carried on the wire: the local jobId for direct submissions, the
    /// coordinator's fleet-global id for leases.
    std::uint64_t wireJobId = 0;
    std::uint64_t sessionId = 0;
    std::uint64_t requestId = 0;
    std::chrono::steady_clock::time_point submitted;
    /// Executor drained it from the queue into a plan (loop -> executor
    /// handoff publishes it; only the executor/workers read it).
    std::chrono::steady_clock::time_point admitted;
    /// Simulation started (written by onJobStart and read by onJobDone on
    /// the same worker thread, so no lock is needed).
    std::chrono::steady_clock::time_point execStart;
    sim::Job job;
  };

  struct Outgoing {
    std::uint64_t sessionId = 0;
    Message msg;
  };

  // Reactor::Role (loop thread only).
  void onOpen(Session& s, int kind) override;
  void onFrame(Session& s, const Message& m) override;
  void onRound(Clock::time_point now) override;
  void onDrain() override;
  void onClose(Session& s) override;
  bool idleEligible(const Session& s) const override;
  bool drainDone() override;

  void drainOutgoing();
  void handleSubmit(Session& s, const Message& m, bool lease);
  std::string statsJson();
  std::string metricsText();

  // Fleet link (loop thread only).
  void registerWithCoordinator(Session& s);
  void maintainCoordinatorLink(Clock::time_point now);
  std::size_t queueDepthNow();

  /// Emits one job-lifecycle span; serialized — callable from any thread.
  void jobSpan(const char* stage, const QueuedJob& q, Cycle start, Cycle end);

  // Cross-thread plumbing.
  void executorLoop();
  void postOutgoing(std::uint64_t sessionId, Message m);

  ServerConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  Reactor reactor_;
  std::map<std::uint64_t, Peer> peers_;  ///< Keyed by Session::id.
  std::uint64_t nextJobId_ = 1;

  std::atomic<bool> executorDone_{false};
  std::thread executor_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<QueuedJob> pending_;
  bool drainRequested_ = false;  ///< Guarded by queueMutex_.

  std::mutex outgoingMutex_;
  std::deque<Outgoing> outgoing_;

  // Fleet link state (loop thread only).
  std::uint64_t coordSessionId_ = 0;
  Clock::time_point nextCoordAttempt_{};
  Clock::time_point lastHeartbeat_{};
  int coordBackoffMs_ = 0;

  // Health.  Counters live in the metrics registry and are bumped only by
  // the loop thread; values the executor/workers touch are atomics read
  // through gauges, so STATS (answered on the loop thread) never races.
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter accepted_;
  telemetry::Counter rejected_;
  telemetry::Counter protocolErrors_;
  std::atomic<std::uint64_t> inflightA_{0};
  std::atomic<std::uint64_t> completedA_{0};
  std::atomic<std::uint64_t> failedA_{0};
  std::atomic<std::uint64_t> queueDepthA_{0};

  std::mutex statsMutex_;      ///< Histograms (executor writes, loop reads).
  Histogram queueDepthHist_;
  Histogram latencyHist_;     ///< Submit -> report, per job (ms).
  Histogram queueWaitHist_;   ///< Submit -> simulation start, per job (ms).
  Histogram execHist_;        ///< Simulation start -> done, per job (ms).

  /// Job-lifecycle tracer (cfg_.traceJsonPath); TraceWriter is not
  /// thread-safe and spans come from the executor and pool workers, so
  /// every emission goes through jobSpan()'s lock.
  std::unique_ptr<telemetry::TraceWriter> jobTracer_;
  std::mutex jobTracerMutex_;
  std::chrono::steady_clock::time_point startTime_;
};

}  // namespace renuca::server
