#include "server/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"

namespace renuca::server {

namespace {

/// Longest wait of one round: the cadence of timers (heartbeats, lease
/// expiry, idle reaping) when no socket or wakeup is ready.
constexpr int kPollMs = 100;

bool setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errnoString() { return std::strerror(errno); }

/// A nonblocking socket listening on `addr`; -1 (logged) on failure.
int bindListener(const char* tag, const sockaddr* addr, socklen_t len,
                 const std::string& name) {
  const bool unixDomain = addr->sa_family == AF_UNIX;
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) {
    logMessage(LogLevel::Error, tag,
               std::string(unixDomain ? "socket(AF_UNIX): " : "socket(AF_INET): ") +
                   errnoString());
    return -1;
  }
  if (!unixDomain) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 128) != 0 || !setNonBlocking(fd)) {
    logMessage(LogLevel::Error, tag, "bind/listen " + name + ": " + errnoString());
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::string parseHostPort(const std::string& s, std::string& host,
                          std::uint16_t& port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) {
    return "bad address '" + s + "' (want host:port)";
  }
  const std::string portStr = s.substr(colon + 1);
  const bool digits = !portStr.empty() && portStr.size() <= 5 &&
                      portStr.find_first_not_of("0123456789") == std::string::npos;
  const unsigned long p = digits ? std::stoul(portStr) : 0;
  if (!digits || p > 65535) return "bad port in '" + s + "'";
  host = s.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return "";
}

void metricsJson(std::ostream& os, const telemetry::MetricsRegistry& metrics) {
  const std::vector<std::string>& names = metrics.names();
  const std::vector<double> values = metrics.sample();
  os << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << '"' << names[i] << "\": " << values[i];
  }
  os << '}';
}

void histogramJson(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.total() << ", \"p50\": " << h.percentile(0.50)
     << ", \"p90\": " << h.percentile(0.90) << ", \"p99\": " << h.percentile(0.99)
     << "}";
}

Reactor::Reactor(const ReactorConfig& cfg, Role& role, const char* tag,
                 const char* peerNoun)
    : cfg_(cfg), role_(role), tag_(tag), peerNoun_(peerNoun) {
  if (pipe(wakePipe_) != 0) {
    logMessage(LogLevel::Error, tag_, "pipe() failed: " + errnoString());
    wakePipe_[0] = wakePipe_[1] = -1;
  } else {
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);
  }
}

Reactor::~Reactor() {
  for (auto& [id, s] : sessions_) {
    if (s.fd >= 0) ::close(s.fd);
  }
  for (int fd : listenFds_) ::close(fd);
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    for (const Adopted& a : adopted_) ::close(a.fd);
  }
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
}

bool Reactor::listen() {
  if (!cfg_.socketPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.size() >= sizeof(addr.sun_path)) {
      logMessage(LogLevel::Error, tag_, "socket path too long: " + cfg_.socketPath);
      return false;
    }
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(), cfg_.socketPath.size() + 1);
    ::unlink(cfg_.socketPath.c_str());
    const int fd = bindListener(tag_, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr), cfg_.socketPath);
    if (fd < 0) return false;
    listenFds_.push_back(fd);
    logMessage(LogLevel::Info, tag_, "listening on " + cfg_.socketPath);
  }
  if (!cfg_.listenHostPort.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!parseHostPort(cfg_.listenHostPort, host, port).empty()) {
      logMessage(LogLevel::Error, tag_,
                 "bad listen address '" + cfg_.listenHostPort + "' (want host:port)");
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host.empty() || host == "*") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      logMessage(LogLevel::Error, tag_, "bad listen host '" + host + "'");
      return false;
    }
    const int fd = bindListener(tag_, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr), cfg_.listenHostPort);
    if (fd < 0) return false;
    listenFds_.push_back(fd);
    logMessage(LogLevel::Info, tag_, "listening on " + cfg_.listenHostPort);
  }
  if (listenFds_.empty()) {
    logMessage(LogLevel::Error, tag_, "no listeners configured");
    return false;
  }
  return true;
}

void Reactor::adopt(int fd, int kind) {
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    adopted_.push_back(Adopted{fd, kind});
  }
  wake();
}

void Reactor::requestStop() {
  stopFlag_.store(true, std::memory_order_relaxed);
  // write() is on the async-signal-safe list; the byte's only job is to
  // interrupt poll().
  wake();
}

void Reactor::wake() {
  if (wakePipe_[1] >= 0) {
    const char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
  }
}

void Reactor::drainAdopted() {
  std::vector<Adopted> batch;
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    batch.swap(adopted_);
  }
  for (const Adopted& a : batch) open(a.fd, a.kind);
}

Reactor::Session& Reactor::open(int fd, int kind) {
  setNonBlocking(fd);
  Session s;
  s.fd = fd;
  s.id = nextSessionId_++;
  s.lastActive = Clock::now();
  Session& added = sessions_.emplace(s.id, std::move(s)).first->second;
  role_.onOpen(added, kind);
  return added;
}

Reactor::Session* Reactor::find(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool Reactor::alive(std::uint64_t id) const {
  auto it = sessions_.find(id);
  return it != sessions_.end() && !it->second.dead;
}

void Reactor::acceptPending(int listenFd) {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient error; poll will retry.
    }
    open(fd, 0);
  }
}

void Reactor::send(Session& s, const Message& m) {
  if (s.dead) return;
  const std::vector<std::uint8_t> frame = encodeFrame(m);
  s.out.insert(s.out.end(), frame.begin(), frame.end());
  if (s.unsent() > cfg_.maxWriteBuffer) {
    logMessage(LogLevel::Warn, tag_,
               "session " + std::to_string(s.id) + ": write backlog over " +
                   std::to_string(cfg_.maxWriteBuffer) + " bytes, dropping " +
                   peerNoun_);
    s.dead = true;
  }
}

void Reactor::send(std::uint64_t id, const Message& m) {
  if (Session* s = find(id)) send(*s, m);
}

bool Reactor::flushSession(Session& s) {
  while (s.outOff < s.out.size()) {
    const ssize_t n =
        ::send(s.fd, s.out.data() + s.outOff, s.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      s.outOff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // Peer gone.
  }
  if (s.outOff == s.out.size()) {
    s.out.clear();
    s.outOff = 0;
  } else if (s.outOff > (1u << 20)) {
    s.out.erase(s.out.begin(), s.out.begin() + static_cast<std::ptrdiff_t>(s.outOff));
    s.outOff = 0;
  }
  return true;
}

bool Reactor::readSession(Session& s) {
  for (;;) {
    std::uint8_t tmp[65536];
    const ssize_t n = ::recv(s.fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      s.in.insert(s.in.end(), tmp, tmp + n);
      s.lastActive = Clock::now();
      if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
      continue;
    }
    if (n == 0) return false;  // EOF.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  for (;;) {
    Message m;
    std::string err;
    switch (decodeFrame(s.in, cfg_.maxFrameBytes, m, err)) {
      case DecodeStatus::NeedMore:
        return true;
      case DecodeStatus::Frame:
        handleFrame(s, m);
        break;
      case DecodeStatus::BadPayload: {
        // The frame boundary was sound, only the payload is damaged: tell
        // the peer and keep the session — the next frame decodes fine.
        protocolErrors_.inc();
        send(s, replyTo(m, Op::Error, err));  // requestId 0 if the head died.
        logMessage(LogLevel::Warn, tag_, "session " + std::to_string(s.id) + ": " + err);
        break;
      }
      case DecodeStatus::Fatal:
        protocolErrors_.inc();
        logMessage(LogLevel::Warn, tag_,
                   "session " + std::to_string(s.id) + ": " + err + "; closing");
        return false;
    }
    if (s.dead) return true;  // Flagged mid-loop; the sweep closes it.
  }
}

void Reactor::handleFrame(Session& s, const Message& m) {
  switch (m.op) {
    case Op::Ping:
      send(s, replyTo(m, Op::Pong, m.text));
      return;
    case Op::Shutdown:
      send(s, replyTo(m, Op::Accepted, "draining"));
      logMessage(LogLevel::Info, tag_,
                 "shutdown requested by session " + std::to_string(s.id));
      requestStop();
      return;
    default:
      role_.onFrame(s, m);
      return;
  }
}

void Reactor::closeSession(Session& s) {
  flushSession(s);  // Best effort for already-queued replies.
  role_.onClose(s);
  if (s.fd >= 0) {
    ::close(s.fd);
    s.fd = -1;
  }
}

void Reactor::run() {
  const auto idleTimeout = std::chrono::milliseconds(cfg_.idleTimeoutMs);
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fdSession;  // Parallel to fds; 0 = not a session.
  for (;;) {
    drainAdopted();

    if (stopFlag_.load(std::memory_order_relaxed) && !draining_) {
      draining_ = true;
      role_.onDrain();
      for (int fd : listenFds_) ::close(fd);
      listenFds_.clear();
    }

    role_.onRound(Clock::now());

    if (draining_ && role_.drainDone()) {
      // Everything produced; exit once it is also delivered (or undeliverable).
      bool flushed = true;
      for (const auto& [id, s] : sessions_) {
        if (s.unsent() > 0 && !s.dead) {
          flushed = false;
          break;
        }
      }
      if (flushed) return;
    }

    fds.clear();
    fdSession.clear();
    if (wakePipe_[0] >= 0) {
      fds.push_back({wakePipe_[0], POLLIN, 0});
      fdSession.push_back(0);
    }
    for (int fd : listenFds_) {
      fds.push_back({fd, POLLIN, 0});
      fdSession.push_back(0);
    }
    for (const auto& [id, s] : sessions_) {
      short events = 0;
      // Backpressure: a session with a deep unsent backlog stops being
      // read until its buffer drains — it cannot pump more requests in.
      if (!s.dead && s.unsent() < cfg_.softWriteBuffer) events |= POLLIN;
      if (s.unsent() > 0) events |= POLLOUT;
      if (events == 0 && !s.dead) events = POLLIN;
      fds.push_back({s.fd, events, 0});
      fdSession.push_back(id);
    }

    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
    if (n < 0 && errno != EINTR) {
      logMessage(LogLevel::Error, tag_, "poll: " + errnoString());
      return;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      if (p.fd == wakePipe_[0]) {
        char buf[256];
        while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fdSession[i] == 0) {
        acceptPending(p.fd);
        continue;
      }
      Session* s = find(fdSession[i]);
      if (!s) continue;
      bool ok = (p.revents & (POLLERR | POLLNVAL)) == 0;
      if (ok && (p.revents & POLLOUT)) ok = flushSession(*s);
      if (ok && (p.revents & (POLLIN | POLLHUP))) ok = readSession(*s);
      // One more flush so small replies leave without waiting a poll round.
      if (ok && s->unsent() > 0) ok = flushSession(*s);
      if (!ok) s->dead = true;
    }

    // Idle reaping, then close every session flagged dead this round —
    // by the I/O above, a backlog overflow, or the role (e.g. heartbeat
    // expiry) — even one whose peer never reads again.
    const auto now = Clock::now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = it->second;
      if (!s.dead && cfg_.idleTimeoutMs > 0 && s.unsent() == 0 &&
          now - s.lastActive > idleTimeout && role_.idleEligible(s)) {
        logMessage(LogLevel::Info, tag_,
                   "session " + std::to_string(s.id) + ": idle timeout");
        s.dead = true;
      }
      if (!s.dead) {
        ++it;
        continue;
      }
      closeSession(s);
      it = sessions_.erase(it);
    }
  }
}

void Reactor::shutdown() {
  // One at a time, so a role callback never finds a session whose own
  // onClose already ran.
  for (auto it = sessions_.begin(); it != sessions_.end(); it = sessions_.erase(it)) {
    closeSession(it->second);
  }
  if (!cfg_.socketPath.empty()) ::unlink(cfg_.socketPath.c_str());
  logMessage(LogLevel::Info, tag_, "drained; exiting");
}

}  // namespace renuca::server
