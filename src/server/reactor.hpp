// The socket reactor under renucad (server.hpp) and renuca-coord
// (coordinator.hpp).
//
// One nonblocking poll() loop owns every socket of a daemon: the Unix and
// TCP listeners, a self-pipe for cross-thread wakeups, the queue of
// adopted connections, and the session table.  Each round it accepts
// connections, reads into per-session buffers, decodes frames
// (server/protocol.hpp), flushes per-session write buffers with slow-reader
// backpressure, reaps idle sessions, and closes every session flagged dead
// — wherever in the round the flag was set.
//
// The daemon supplies only its role (Reactor::Role): what a frame means,
// what to do once per round, which quiet sessions may idle out, what a
// closing session leaves behind, and when a drain is complete.  Role state
// that belongs to a session (a worker's leases, a client's in-flight jobs)
// lives in the daemon, keyed by Session::id.
//
// Threading: run(), shutdown() and every Role callback run on the loop
// thread, which is the only thread that touches a socket.  adopt() and
// wake() may be called from any thread; requestStop() is also
// async-signal-safe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "server/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace renuca::server {

/// The socket settings every daemon shares; ServerConfig and
/// CoordinatorConfig extend it.
struct ReactorConfig {
  /// Unix-domain listen path; empty = no Unix listener (tests adopt
  /// socketpair ends instead).
  std::string socketPath;
  /// Optional TCP listener, "host:port" ("" or "*" host = any interface).
  std::string listenHostPort;
  /// Sessions with no traffic that the role deems idle-eligible are closed
  /// after this long (<= 0 = never).
  int idleTimeoutMs = 0;
  /// Frames larger than this are a fatal protocol violation.
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  /// Reading pauses for a session whose unsent backlog passes this...
  std::size_t softWriteBuffer = 1u << 20;
  /// ...and the session is dropped outright past this (a reader this slow
  /// would otherwise grow the buffer without bound).
  std::size_t maxWriteBuffer = 64u << 20;
};

class Reactor {
 public:
  using Clock = std::chrono::steady_clock;

  struct Session {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;  ///< Bytes [outOff, end) are unsent.
    std::size_t outOff = 0;
    bool dead = false;  ///< Closed (after a flush attempt) this round.
    Clock::time_point lastActive;

    std::size_t unsent() const { return out.size() - outOff; }
  };

  /// What a daemon plugs into the reactor.  Every callback runs on the
  /// loop thread.
  class Role {
   public:
    /// A session joined: accepted from a listener (kind 0), adopted, or
    /// opened, with the kind its opener gave.
    virtual void onOpen(Session& s, int kind) = 0;
    /// One decoded frame.  PING and SHUTDOWN never reach the role: the
    /// reactor answers both the same way for every daemon.
    virtual void onFrame(Session& s, const Message& m) = 0;
    /// Once per round, before poll(): timers, cross-thread queues, work.
    virtual void onRound(Clock::time_point now) = 0;
    /// The stop request took effect; called just before the listeners close.
    virtual void onDrain() = 0;
    /// `s` is about to close; its fd is still open.
    virtual void onClose(Session& s) = 0;
    /// May `s`, quiet with nothing unsent, be closed by the idle timeout?
    virtual bool idleEligible(const Session& s) const = 0;
    /// While draining: has the role produced everything it owes?  run()
    /// returns once this holds and every live session is flushed.
    virtual bool drainDone() = 0;

   protected:
    ~Role() = default;
  };

  /// `tag` labels log lines ("server", "coord"); `peerNoun` names the far
  /// end in the backlog-drop warning.
  Reactor(const ReactorConfig& cfg, Role& role, const char* tag,
          const char* peerNoun);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Undecodable frames bump `c` (the daemon's protocol_errors counter).
  void countProtocolErrors(telemetry::Counter c) { protocolErrors_ = c; }

  /// Binds the configured listeners.  False (with a log line) when a
  /// socket cannot be set up.
  bool listen();

  /// Queues an already-connected stream socket; the loop opens it as a
  /// session of `kind`.  Thread-safe.
  void adopt(int fd, int kind = 0);

  /// Begins a graceful drain.  Async-signal-safe (an atomic store and a
  /// pipe write).
  void requestStop();

  /// Interrupts poll() so the next round runs now.  Thread-safe.
  void wake();

  /// Runs rounds until a stop request drains (or poll() fails).
  void run();

  /// After run(): flushes and closes every session (Role::onClose first),
  /// removes the Unix socket path, and logs the exit.
  void shutdown();

  // Loop thread only.
  /// Opens a session on a connected socket (e.g. one the daemon dialed).
  Session& open(int fd, int kind);
  Session* find(std::uint64_t id);
  /// The session exists and is not flagged dead.
  bool alive(std::uint64_t id) const;
  /// Buffers one frame; a backlog past maxWriteBuffer flags `s` dead.
  void send(Session& s, const Message& m);
  /// send() to session `id`; a no-op when it is gone.
  void send(std::uint64_t id, const Message& m);
  std::size_t sessionCount() const { return sessions_.size(); }
  bool draining() const { return draining_; }

 private:
  struct Adopted {
    int fd;
    int kind;
  };

  void drainAdopted();
  void acceptPending(int listenFd);
  bool readSession(Session& s);
  bool flushSession(Session& s);
  void handleFrame(Session& s, const Message& m);
  void closeSession(Session& s);

  ReactorConfig cfg_;
  Role& role_;
  const char* tag_;
  const char* peerNoun_;
  telemetry::Counter protocolErrors_;

  std::vector<int> listenFds_;
  int wakePipe_[2] = {-1, -1};
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t nextSessionId_ = 1;
  bool draining_ = false;

  std::atomic<bool> stopFlag_{false};
  std::mutex adoptMutex_;
  std::vector<Adopted> adopted_;
};

/// Parses "host:port", split at the last ':'; the port is 1-5 decimal
/// digits no larger than 65535.  Returns "" on success, else why not:
/// "bad address '<s>' (want host:port)" or "bad port in '<s>'".
std::string parseHostPort(const std::string& s, std::string& host,
                          std::uint16_t& port);

/// Writes a registry sample as one flat JSON object ({"name": value, ...}).
void metricsJson(std::ostream& os, const telemetry::MetricsRegistry& metrics);

/// Writes {"count", "p50", "p90", "p99"} of `h` as one JSON object.
void histogramJson(std::ostream& os, const Histogram& h);

}  // namespace renuca::server
