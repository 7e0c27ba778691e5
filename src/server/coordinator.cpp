#include "server/coordinator.hpp"

#include <cstdlib>
#include <sstream>

#include "common/log.hpp"
#include "server/jobspec.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"

namespace renuca::server {

namespace {

/// Parses "key=value" lines (REGISTER / HEARTBEAT bodies) into a map.
std::map<std::string, std::string> parseKvLines(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos && eq > 0) {
      kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return kv;
}

double kvDouble(const std::map<std::string, std::string>& kv,
                const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end()) return 0.0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str() ? v : 0.0;
}

/// The synthetic report body for a job the fleet itself failed (attempts
/// exhausted, drain with no workers) — same "error" / "error_code" keys a
/// worker-produced failure report carries.
std::string failReportJson(const std::string& why, ErrCode code) {
  return std::string("{\"error\": \"") + telemetry::jsonEscape(why) +
         "\", \"error_code\": \"" + toString(code) + "\"}\n";
}

double msSince(Reactor::Clock::time_point from, Reactor::Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count() * 1000.0;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)),
      reactor_(cfg_, *this, "coord", "peer"),
      leaseWaitHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      latencyHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096) {
  submitted_ = metrics_.counter("coord/submitted");
  rejected_ = metrics_.counter("coord/rejected");
  protocolErrors_ = metrics_.counter("coord/protocol_errors");
  reactor_.countProtocolErrors(protocolErrors_);
  redispatched_ = metrics_.counter("coord/redispatched");
  duplicatesDiscarded_ = metrics_.counter("coord/duplicates_discarded");
  workersLost_ = metrics_.counter("coord/workers_lost");
  canceled_ = metrics_.counter("coord/canceled");
  // Gauges are sampled only from the loop thread (STATS/METRICS replies),
  // so they may walk the job table directly.
  metrics_.gauge("coord/pending", [this] {
    double n = 0;
    for (const auto& [id, j] : jobs_) n += j.phase == FleetJob::Phase::Pending;
    return n;
  });
  metrics_.gauge("coord/leased", [this] {
    double n = 0;
    for (const auto& [id, j] : jobs_) n += j.phase == FleetJob::Phase::Leased;
    return n;
  });
  metrics_.gauge("coord/completed",
                 [this] { return static_cast<double>(completed_); });
  metrics_.gauge("coord/failed", [this] { return static_cast<double>(failed_); });
  metrics_.gauge("coord/workers_live",
                 [this] { return static_cast<double>(liveWorkers()); });
  metrics_.gauge("coord/sessions",
                 [this] { return static_cast<double>(reactor_.sessionCount()); });
}

bool Coordinator::listen() { return reactor_.listen(); }

void Coordinator::adoptConnection(int fd) { reactor_.adopt(fd); }

void Coordinator::requestStop() { reactor_.requestStop(); }

void Coordinator::onOpen(Session& s, int /*kind*/) {
  peers_[s.id].lastSeen = Clock::now();
}

void Coordinator::onFrame(Session& s, const Message& m) {
  Peer& p = peers_.at(s.id);
  switch (m.op) {
    case Op::Submit:
      handleSubmit(s, p, m);
      return;
    case Op::Register:
      handleRegister(s, p, m);
      return;
    case Op::Heartbeat:
      handleHeartbeat(s, p, m);
      return;
    case Op::Accepted:
    case Op::Busy:
    case Op::Error:
    case Op::Status:
    case Op::Report:
      if (p.worker) {
        handleWorkerResult(s, p, m);
        return;
      }
      protocolErrors_.inc();
      logMessage(LogLevel::Warn, "coord",
                 "session " + std::to_string(s.id) + ": " + toString(m.op) +
                     " from a non-worker peer");
      return;
    case Op::Stats:
      reactor_.send(s, replyTo(m, Op::StatsReply, statsJson()));
      return;
    case Op::Metrics:
      reactor_.send(s, replyTo(m, Op::MetricsReply, metricsText()));
      return;
    default:
      protocolErrors_.inc();
      reactor_.send(s, replyTo(m, Op::Error,
                               std::string("unexpected opcode ") + toString(m.op) +
                                   " at the coordinator"));
      return;
  }
}

void Coordinator::handleSubmit(Session& s, Peer& p, const Message& m) {
  Message reply;
  reply.requestId = m.requestId;
  if (reactor_.draining()) {
    reply.op = Op::Busy;
    reply.errorCode = ErrCode::Busy;
    reply.text = "coordinator is draining";
    rejected_.inc();
    reactor_.send(s, reply);
    return;
  }
  // Validate the spec here so a typo costs one Error frame, not a lease.
  sim::Job job;
  std::string err;
  if (!parseJobSpec(m.text, job, err)) {
    reply.op = Op::Error;
    reply.errorCode = ErrCode::Sim;
    reply.text = err;
    rejected_.inc();
    reactor_.send(s, reply);
    return;
  }
  if (pendingQ_.size() >= cfg_.maxQueue) {
    reply.op = Op::Busy;
    reply.errorCode = ErrCode::Busy;
    reply.text = "fleet backlog full (" + std::to_string(cfg_.maxQueue) + ")";
    rejected_.inc();
    reactor_.send(s, reply);
    return;
  }
  FleetJob j;
  j.id = nextJobId_++;
  j.clientSession = s.id;
  j.clientRequest = m.requestId;
  j.spec = m.text;
  j.submitted = Clock::now();
  const std::uint64_t id = j.id;
  jobs_.emplace(id, std::move(j));
  pendingQ_.push_back(id);
  p.order.push_back(id);
  p.undelivered++;
  submitted_.inc();
  reply.op = Op::Accepted;
  reply.jobId = id;
  reactor_.send(s, reply);
  Message status;
  status.op = Op::Status;
  status.requestId = m.requestId;
  status.jobId = id;
  status.state = JobState::Queued;
  reactor_.send(s, status);
}

void Coordinator::handleRegister(Session& s, Peer& p, const Message& m) {
  const auto kv = parseKvLines(m.text);
  p.worker = true;
  auto nameIt = kv.find("name");
  p.workerName = (nameIt != kv.end() && !nameIt->second.empty())
                     ? nameIt->second
                     : "worker-" + std::to_string(s.id);
  const double cap = kvDouble(kv, "capacity");
  p.capacity = cap >= 1.0 ? static_cast<std::size_t>(cap) : 1;
  p.lastSeen = Clock::now();
  noteWorkerStats(p.workerName);
  workerLoad_[p.workerName].live = 1;
  logMessage(LogLevel::Info, "coord",
             "worker " + p.workerName + " registered (session " +
                 std::to_string(s.id) + ", capacity " +
                 std::to_string(p.capacity) + ")");
}

void Coordinator::handleHeartbeat(Session& s, Peer& p, const Message& m) {
  if (!p.worker) {
    protocolErrors_.inc();
    logMessage(LogLevel::Warn, "coord",
               "session " + std::to_string(s.id) + ": HEARTBEAT before REGISTER");
    return;
  }
  const auto now = Clock::now();
  p.lastSeen = now;
  const auto kv = parseKvLines(m.text);
  WorkerLoad& load = workerLoad_[p.workerName];
  load.queueDepth = kvDouble(kv, "queue_depth");
  load.inflight = kvDouble(kv, "inflight");
  load.queueWaitP50Ms = kvDouble(kv, "queue_wait_p50_ms");
  load.live = 1;
  // A breathing worker renews its leases: expiry exists to catch dead or
  // partitioned holders, not long jobs on a healthy one.
  for (std::uint64_t id : p.leases) {
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.deadline = now + std::chrono::milliseconds(cfg_.leaseTimeoutMs);
    }
  }
}

void Coordinator::handleWorkerResult(Session& s, Peer& p, const Message& m) {
  if (m.jobId == 0) return;  // Admission ack for nothing we track.
  auto it = jobs_.find(m.jobId);
  if (it == jobs_.end()) {
    // Already committed and delivered — a zombie's late duplicate.
    if (m.op == Op::Report) duplicatesDiscarded_.inc();
    return;
  }
  FleetJob& job = it->second;
  switch (m.op) {
    case Op::Accepted:
      return;  // The worker admitted the lease; nothing to record.
    case Op::Busy: {
      // Saturation, not failure: refund the attempt, put the job back, and
      // skip this worker for a beat so the next dispatch spreads out.
      if (job.phase == FleetJob::Phase::Leased && job.worker == s.id) {
        job.attempts = job.attempts > 0 ? job.attempts - 1 : 0;
        p.backoffUntil = Clock::now() + std::chrono::milliseconds(cfg_.busyBackoffMs);
        requeue(job, "worker busy");
      }
      return;
    }
    case Op::Error: {
      // Only the current lease holder's verdict counts; a stale holder's
      // error is superseded by the re-dispatch already in motion.
      if (job.phase != FleetJob::Phase::Leased || job.worker != s.id) return;
      if (retryable(m.errorCode)) {
        requeue(job, "worker error");
      } else {
        // The worker rejected the spec deterministically (parse failure):
        // any retry would bounce identically.
        failJob(job, m.errorCode == ErrCode::None ? ErrCode::Sim : m.errorCode,
                m.text);
      }
      return;
    }
    case Op::Status: {
      if (job.phase == FleetJob::Phase::Done) return;
      if (m.state == JobState::Running && !job.canceled) {
        Message fwd = m;
        fwd.requestId = job.clientRequest;
        reactor_.send(job.clientSession, fwd);
      } else if (m.state == JobState::Done || m.state == JobState::Failed) {
        // Stash the final status; the Report that follows on the same
        // stream commits both in order.
        job.finalStatus = m;
      }
      return;
    }
    case Op::Report: {
      if (job.phase == FleetJob::Phase::Done) {
        duplicatesDiscarded_.inc();
        return;
      }
      if (m.state == JobState::Failed && retryable(m.errorCode) &&
          job.attempts < cfg_.maxAttempts) {
        requeue(job, std::string("retryable failure (" +
                                 std::string(toString(m.errorCode)) + ")")
                         .c_str());
        return;
      }
      Message status = job.finalStatus;
      if (status.op != Op::Status) {  // Worker's Status frame got lost.
        status.op = Op::Status;
        status.jobId = m.jobId;
        status.state = m.state;
        status.errorCode = m.errorCode;
      }
      commit(job, status, m);
      return;
    }
    default:
      return;
  }
}

void Coordinator::dispatch(Clock::time_point now) {
  while (!pendingQ_.empty()) {
    // Least-loaded healthy worker with lease capacity to spare.
    std::uint64_t bestId = 0;
    Peer* best = nullptr;
    for (auto& [sid, p] : peers_) {
      if (!p.worker || p.leases.size() >= p.capacity || p.backoffUntil > now) continue;
      if (!reactor_.alive(sid)) continue;
      if (!best || p.leases.size() < best->leases.size()) {
        bestId = sid;
        best = &p;
      }
    }
    if (!best) return;
    const std::uint64_t id = pendingQ_.front();
    pendingQ_.pop_front();
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.phase != FleetJob::Phase::Pending) {
      continue;  // Canceled or committed while queued; stale entry.
    }
    FleetJob& job = it->second;
    job.phase = FleetJob::Phase::Leased;
    job.worker = bestId;
    job.attempts++;
    job.deadline = now + std::chrono::milliseconds(cfg_.leaseTimeoutMs);
    if (job.firstLease == Clock::time_point{}) {
      job.firstLease = now;
      leaseWaitHist_.add(msSince(job.submitted, now));
    }
    best->leases.insert(id);
    Message lease;
    lease.op = Op::Lease;
    lease.requestId = id;
    lease.jobId = id;
    lease.text = job.spec;
    reactor_.send(bestId, lease);
  }
}

void Coordinator::expireLeases(Clock::time_point now) {
  // Workers silent past the heartbeat window are dead; their sessions get
  // flagged and the close path re-queues their leases.
  for (auto& [sid, p] : peers_) {
    if (!p.worker ||
        now - p.lastSeen <= std::chrono::milliseconds(cfg_.heartbeatTimeoutMs))
      continue;
    Session* s = reactor_.find(sid);
    if (s && !s->dead) {
      logMessage(LogLevel::Warn, "coord",
                 "worker " + p.workerName + " missed heartbeats; dropping");
      s->dead = true;
    }
  }
  std::vector<std::uint64_t> expired;
  for (auto& [id, j] : jobs_) {
    if (j.phase == FleetJob::Phase::Leased && now > j.deadline) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    logMessage(LogLevel::Warn, "coord",
               "lease for job " + std::to_string(id) + " expired");
    // Deprioritize the stalled holder so the redispatch prefers a
    // different worker; a lone worker becomes eligible again after the
    // backoff window.
    auto wit = peers_.find(it->second.worker);
    if (wit != peers_.end())
      wit->second.backoffUntil =
          now + std::chrono::milliseconds(cfg_.busyBackoffMs);
    requeue(it->second, "lease expired");
  }
}

void Coordinator::requeue(FleetJob& job, const char* why) {
  if (job.phase == FleetJob::Phase::Leased) {
    auto wit = peers_.find(job.worker);
    if (wit != peers_.end()) wit->second.leases.erase(job.id);
  }
  job.phase = FleetJob::Phase::Pending;
  job.worker = 0;
  if (job.attempts >= cfg_.maxAttempts) {
    failJob(job, ErrCode::WorkerLost,
            "gave up after " + std::to_string(job.attempts) + " attempts (" +
                why + ")");
    return;
  }
  redispatched_.inc();
  pendingQ_.push_back(job.id);
  logMessage(LogLevel::Info, "coord",
             "job " + std::to_string(job.id) + " re-queued (" + why +
                 "), attempt " + std::to_string(job.attempts) + "/" +
                 std::to_string(cfg_.maxAttempts));
}

void Coordinator::failJob(FleetJob& job, ErrCode code, const std::string& why) {
  Message status;
  status.op = Op::Status;
  status.jobId = job.id;
  status.state = JobState::Failed;
  status.errorCode = code;
  status.text = why;
  Message report;
  report.op = Op::Report;
  report.jobId = job.id;
  report.state = JobState::Failed;
  report.errorCode = code;
  report.text = failReportJson(why, code);
  commit(job, std::move(status), std::move(report));
}

void Coordinator::commit(FleetJob& job, Message status, Message report) {
  // First result wins; callers already filtered Phase::Done duplicates.
  if (job.phase == FleetJob::Phase::Leased) {
    auto wit = peers_.find(job.worker);
    if (wit != peers_.end()) wit->second.leases.erase(job.id);
  }
  job.phase = FleetJob::Phase::Done;
  job.worker = 0;
  (report.state == JobState::Failed ? failed_ : completed_)++;
  latencyHist_.add(msSince(job.submitted, Clock::now()));
  if (job.canceled) {
    jobs_.erase(job.id);  // Nobody is waiting; drop the result.
    return;
  }
  status.requestId = job.clientRequest;
  status.jobId = job.id;
  report.requestId = job.clientRequest;
  report.jobId = job.id;
  job.finalStatus = std::move(status);
  job.finalReport = std::move(report);
  deliverReady(job.clientSession);
}

void Coordinator::deliverReady(std::uint64_t clientSessionId) {
  Session* cs = reactor_.find(clientSessionId);
  if (!cs) return;
  Peer& client = peers_.at(clientSessionId);
  // Plan-order streaming: a finished job's report leaves only when every
  // job this client submitted before it has left too.
  while (!client.order.empty()) {
    auto jit = jobs_.find(client.order.front());
    if (jit == jobs_.end()) {
      client.order.pop_front();
      continue;
    }
    FleetJob& j = jit->second;
    if (j.phase != FleetJob::Phase::Done) break;
    reactor_.send(*cs, j.finalStatus);
    reactor_.send(*cs, j.finalReport);
    if (client.undelivered > 0) --client.undelivered;
    client.order.pop_front();
    jobs_.erase(jit);
  }
}

void Coordinator::cancelClientJobs(std::uint64_t clientSessionId) {
  std::vector<std::uint64_t> mine;
  for (auto& [id, j] : jobs_) {
    if (j.clientSession == clientSessionId) mine.push_back(id);
  }
  for (std::uint64_t id : mine) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    FleetJob& j = it->second;
    switch (j.phase) {
      case FleetJob::Phase::Pending:
        canceled_.inc();
        jobs_.erase(it);  // pendingQ_ entry goes stale; dispatch skips it.
        break;
      case FleetJob::Phase::Leased:
        // The worker finishes anyway; the result is discarded at commit.
        canceled_.inc();
        j.canceled = true;
        break;
      case FleetJob::Phase::Done:
        jobs_.erase(it);  // Buffered but never deliverable now.
        break;
    }
  }
}

void Coordinator::onClose(Session& s) {
  Peer& p = peers_.at(s.id);
  if (p.worker) {
    workersLost_.inc();
    workerLoad_[p.workerName].live = 0;
    if (!p.leases.empty()) {
      logMessage(LogLevel::Warn, "coord",
                 "worker " + p.workerName + " lost with " +
                     std::to_string(p.leases.size()) + " lease(s); re-queueing");
    }
    const std::vector<std::uint64_t> held(p.leases.begin(), p.leases.end());
    for (std::uint64_t id : held) {
      auto it = jobs_.find(id);
      if (it != jobs_.end()) requeue(it->second, "worker lost");
    }
  } else {
    cancelClientJobs(s.id);
  }
  peers_.erase(s.id);
}

bool Coordinator::idleEligible(const Session& s) const {
  // Workers never idle out; a client does once everything is delivered.
  const Peer& p = peers_.at(s.id);
  return !p.worker && p.undelivered == 0;
}

void Coordinator::onDrain() {
  logMessage(LogLevel::Info, "coord", "draining: finishing leased work");
}

void Coordinator::onRound(Clock::time_point now) {
  expireLeases(now);
  dispatch(now);
  if (reactor_.draining() && liveWorkers() == 0 && !jobs_.empty()) failStranded();
}

bool Coordinator::drainDone() { return jobs_.empty(); }

void Coordinator::failStranded() {
  // Nothing left to run the work; fail it rather than hang the drain.
  std::vector<std::uint64_t> ids;
  for (auto& [id, j] : jobs_) {
    if (j.phase != FleetJob::Phase::Done) ids.push_back(id);
  }
  for (std::uint64_t id : ids) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    if (it->second.phase == FleetJob::Phase::Leased) {
      auto wit = peers_.find(it->second.worker);
      if (wit != peers_.end()) wit->second.leases.erase(id);
      it->second.worker = 0;
      it->second.phase = FleetJob::Phase::Pending;
    }
    failJob(it->second, ErrCode::Canceled, "no workers left during drain");
  }
  pendingQ_.clear();
}

std::size_t Coordinator::liveWorkers() const {
  std::size_t n = 0;
  for (const auto& [id, p] : peers_) {
    if (p.worker && reactor_.alive(id)) ++n;
  }
  return n;
}

void Coordinator::noteWorkerStats(const std::string& name) {
  // One gauge set per worker *name*, registered on first sight; the map
  // node is stable, so reconnects under the same name reuse it.
  if (workerLoad_.count(name)) return;
  WorkerLoad& load = workerLoad_[name];
  const std::string base = "coord/worker/" + name + "/";
  metrics_.gauge(base + "live", [&load] { return load.live; });
  metrics_.gauge(base + "queue_depth", [&load] { return load.queueDepth; });
  metrics_.gauge(base + "inflight", [&load] { return load.inflight; });
  metrics_.gauge(base + "queue_wait_p50_ms",
                 [&load] { return load.queueWaitP50Ms; });
}

std::string Coordinator::statsJson() {
  std::ostringstream os;
  os << "{\"coordinator\": ";
  metricsJson(os, metrics_);
  os << ", \"workers\": {";
  bool first = true;
  for (const auto& [name, load] : workerLoad_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << telemetry::jsonEscape(name) << "\": {\"live\": " << load.live
       << ", \"queue_depth\": " << load.queueDepth
       << ", \"inflight\": " << load.inflight
       << ", \"queue_wait_p50_ms\": " << load.queueWaitP50Ms << "}";
  }
  os << "}, \"lease_wait_ms\": ";
  histogramJson(os, leaseWaitHist_);
  os << ", \"job_latency_ms\": ";
  histogramJson(os, latencyHist_);
  os << "}\n";
  return os.str();
}

std::string Coordinator::metricsText() {
  // Registry names already start with "coord/", so the prefix is just the
  // product family: coord/submitted -> renuca_coord_submitted.
  return telemetry::renderPrometheus(metrics_,
                                     {{"coord/lease_wait_ms", &leaseWaitHist_},
                                      {"coord/job_latency_ms", &latencyHist_}},
                                     "renuca_");
}

int Coordinator::run() {
  reactor_.run();
  reactor_.shutdown();
  return 0;
}

}  // namespace renuca::server
