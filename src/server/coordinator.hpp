// renuca-coord: the fleet coordinator for sharded simulation service.
//
// One coordinator fronts N renucad workers.  Workers dial in and REGISTER
// (server.hpp's fleet worker mode); clients connect exactly as they would
// to a single renucad and SUBMIT job specs.  The coordinator shards the
// incoming work into per-job *leases* with deadlines, re-dispatches the
// leases of workers that die, stall, or answer BUSY, and streams each
// client's reports back in submission order — so a client cannot tell a
// fleet from one big server, except that killing any single worker no
// longer loses work.
//
// The reliability rules, in one place:
//
//  * Lease lifecycle: Pending -> Leased (deadline = now + leaseTimeoutMs,
//    renewed by the holder's heartbeats) -> Done.  An expired lease or a
//    dead holder re-queues the job; every dispatch consumes one of
//    maxAttempts, except a BUSY bounce (saturation is not failure — the
//    worker gets a short dispatch backoff instead).
//  * At-most-once commit: the first Done/Failed result for a fleet job id
//    wins; anything later — typically a zombie worker's late duplicate
//    after its lease was re-dispatched — is counted and discarded.
//    Results are deterministic (a job's report depends only on its spec),
//    so "first wins" never changes the answer.
//  * Failure classification: a Failed result whose ErrCode is retryable
//    (Io / Busy / WorkerLost) re-queues until maxAttempts; a fatal one
//    (Sim — deterministic, would fail identically anywhere) commits
//    immediately.  Attempts exhausted => a synthetic Failed report.
//  * Ordered delivery: final Status + Report frames are buffered per
//    client session and released in submission order, matching what a
//    single renucad running the same plan would stream.
//  * Cancellation: a client that disconnects abandons its unfinished
//    jobs — pending ones are dropped, leased ones finish on the worker
//    and their results are discarded at commit.
//  * Drain: Shutdown/SIGTERM stops admission (BUSY), lets leased work
//    finish, and fails whatever cannot run if no worker is left alive.
//
// Like renucad, the coordinator is a Role on the socket reactor
// (server/reactor.hpp): every socket, lease table, and buffer belongs to
// the loop thread; adoptConnection() and the async-signal-safe
// requestStop() are the only cross-thread entry points.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "server/protocol.hpp"
#include "server/reactor.hpp"
#include "telemetry/metrics.hpp"

namespace renuca::server {

/// Socket settings (listeners, idle timeout, frame and write-buffer
/// bounds) come from ReactorConfig; the idle timeout never applies to
/// workers.
struct CoordinatorConfig : ReactorConfig {
  /// Admission bound across all clients; a full backlog answers BUSY.
  std::size_t maxQueue = 4096;
  /// A lease not renewed (by its holder's heartbeats) within this window
  /// is presumed lost and re-dispatched.
  int leaseTimeoutMs = 10000;
  /// A worker silent for this long is dead; its leases re-dispatch.
  int heartbeatTimeoutMs = 5000;
  /// Dispatches (including the first) a job may consume before the
  /// coordinator gives up and fails it.  BUSY bounces do not count.
  int maxAttempts = 5;
  /// A worker that answered BUSY is skipped for this long.
  int busyBackoffMs = 300;
};

class Coordinator : private Reactor::Role {
 public:
  explicit Coordinator(CoordinatorConfig cfg);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the configured listeners.  Optional: a coordinator can run
  /// purely on adopted connections (the in-process fleet tests do).
  bool listen();

  /// Hands the coordinator one end of an already-connected stream socket.
  /// Whether the peer is a client or a worker emerges from its first
  /// frames (a worker REGISTERs).  Thread-safe.
  void adoptConnection(int fd);

  /// Runs the event loop until a stop request drains.  Returns 0 on a
  /// clean drain.
  int run();

  /// Begins a graceful drain.  Async-signal-safe.
  void requestStop();

 private:
  using Clock = Reactor::Clock;
  using Session = Reactor::Session;

  /// The coordinator's half of a session: a worker once it REGISTERs, a
  /// client otherwise.
  struct Peer {
    // Worker half (set by REGISTER).
    bool worker = false;
    std::string workerName;
    std::size_t capacity = 1;           ///< Max concurrent leases.
    std::set<std::uint64_t> leases;     ///< Fleet job ids held right now.
    Clock::time_point lastSeen;
    Clock::time_point backoffUntil{};
    // Client half.
    std::deque<std::uint64_t> order;  ///< Submission order for delivery.
    std::size_t undelivered = 0;      ///< Jobs admitted, report not yet sent.
  };

  /// One sharded job, from admission to ordered delivery.
  struct FleetJob {
    enum class Phase : std::uint8_t { Pending, Leased, Done };
    std::uint64_t id = 0;
    std::uint64_t clientSession = 0;
    std::uint64_t clientRequest = 0;
    std::string spec;
    Phase phase = Phase::Pending;
    int attempts = 0;               ///< Dispatches consumed.
    std::uint64_t worker = 0;       ///< Lease holder's session id (Leased).
    bool canceled = false;          ///< Client left; discard the result.
    Clock::time_point submitted;
    Clock::time_point firstLease{};
    Clock::time_point deadline{};
    Message finalStatus;  ///< Buffered for in-order delivery once Done.
    Message finalReport;
  };

  // Reactor::Role (loop thread only).
  void onOpen(Session& s, int kind) override;
  void onFrame(Session& s, const Message& m) override;
  void onRound(Clock::time_point now) override;
  void onDrain() override;
  void onClose(Session& s) override;
  bool idleEligible(const Session& s) const override;
  bool drainDone() override;

  void handleSubmit(Session& s, Peer& p, const Message& m);
  void handleRegister(Session& s, Peer& p, const Message& m);
  void handleHeartbeat(Session& s, Peer& p, const Message& m);
  void handleWorkerResult(Session& s, Peer& p, const Message& m);

  /// Grants pending jobs to healthy workers with free capacity.
  void dispatch(Clock::time_point now);
  /// Re-queues expired leases; kills workers silent past the heartbeat
  /// timeout (their sessions are flagged dead and reaped this round).
  void expireLeases(Clock::time_point now);
  /// Re-queues one leased job (lease lost / retryable failure).
  void requeue(FleetJob& job, const char* why);
  /// Commits the final result for a job (first writer wins) and releases
  /// any in-order deliveries it unblocks.
  void commit(FleetJob& job, Message status, Message report);
  /// Fails a job synthetically (attempts exhausted, no workers on drain).
  void failJob(FleetJob& job, ErrCode code, const std::string& why);
  /// Sends every buffered result at the front of the session's order
  /// queue whose job is Done.
  void deliverReady(std::uint64_t clientSessionId);
  /// Drops a departed client's unfinished jobs.
  void cancelClientJobs(std::uint64_t clientSessionId);
  /// Draining with no live worker: fails every unfinished job.
  void failStranded();

  std::string statsJson();
  std::string metricsText();
  std::size_t liveWorkers() const;
  void noteWorkerStats(const std::string& name);

  CoordinatorConfig cfg_;
  Reactor reactor_;
  std::map<std::uint64_t, Peer> peers_;  ///< Keyed by Session::id.
  std::uint64_t nextJobId_ = 1;

  std::map<std::uint64_t, FleetJob> jobs_;  ///< Every unfinished job.
  std::deque<std::uint64_t> pendingQ_;      ///< Awaiting dispatch (FIFO).

  /// Last heartbeat-reported load per worker *name* (stable storage for
  /// the per-worker gauges; a name's entry survives reconnects).
  struct WorkerLoad {
    double queueDepth = 0;
    double inflight = 0;
    double queueWaitP50Ms = 0;
    double live = 0;
  };
  std::map<std::string, WorkerLoad> workerLoad_;

  telemetry::MetricsRegistry metrics_;
  telemetry::Counter submitted_;
  telemetry::Counter rejected_;
  telemetry::Counter protocolErrors_;
  telemetry::Counter redispatched_;
  telemetry::Counter duplicatesDiscarded_;
  telemetry::Counter workersLost_;
  telemetry::Counter canceled_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;

  Histogram leaseWaitHist_;   ///< Submit -> first lease, per job (ms).
  Histogram latencyHist_;     ///< Submit -> commit, per job (ms).
};

}  // namespace renuca::server
