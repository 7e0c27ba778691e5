#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "server/client.hpp"
#include "server/jobspec.hpp"
#include "sim/report.hpp"
#include "telemetry/prometheus.hpp"

namespace renuca::server {

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      pool_(std::make_unique<ThreadPool>(sim::resolveJobs(cfg_.jobs))),
      reactor_(cfg_, *this, "server", "client"),
      queueDepthHist_(1.0, cfg_.maxQueue + 2),
      latencyHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      queueWaitHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      execHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      startTime_(std::chrono::steady_clock::now()) {
  if (cfg_.workerName.empty()) {
    cfg_.workerName = "w" + std::to_string(static_cast<long>(::getpid()));
  }
  if (!cfg_.traceJsonPath.empty()) {
    jobTracer_ =
        std::make_unique<telemetry::TraceWriter>(cfg_.traceJsonPath, 1);
    if (jobTracer_->ok()) {
      jobTracer_->nameProcess(1, "jobs");
    } else {
      jobTracer_.reset();
    }
  }
  accepted_ = metrics_.counter("server/accepted");
  rejected_ = metrics_.counter("server/rejected");
  protocolErrors_ = metrics_.counter("server/protocol_errors");
  reactor_.countProtocolErrors(protocolErrors_);
  metrics_.gauge("server/inflight",
                 [this] { return static_cast<double>(inflightA_.load()); });
  metrics_.gauge("server/completed",
                 [this] { return static_cast<double>(completedA_.load()); });
  metrics_.gauge("server/failed",
                 [this] { return static_cast<double>(failedA_.load()); });
  metrics_.gauge("server/queue_depth",
                 [this] { return static_cast<double>(queueDepthA_.load()); });
  metrics_.gauge("server/sessions",
                 [this] { return static_cast<double>(reactor_.sessionCount()); });
}

bool Server::listen() { return reactor_.listen(); }

void Server::adoptConnection(int fd) { reactor_.adopt(fd); }

void Server::adoptCoordinator(int fd) { reactor_.adopt(fd, kCoordinatorLink); }

void Server::requestStop() { reactor_.requestStop(); }

void Server::postOutgoing(std::uint64_t sessionId, Message m) {
  {
    std::lock_guard<std::mutex> lk(outgoingMutex_);
    outgoing_.push_back(Outgoing{sessionId, std::move(m)});
  }
  reactor_.wake();
}

void Server::onOpen(Session& s, int kind) {
  Peer& p = peers_[s.id];
  if (kind != kCoordinatorLink) return;
  p.coordinator = true;
  coordSessionId_ = s.id;
  lastHeartbeat_ = Clock::now();
  registerWithCoordinator(s);
}

void Server::onClose(Session& s) {
  if (peers_.at(s.id).coordinator && s.id == coordSessionId_) {
    coordSessionId_ = 0;  // maintainCoordinatorLink() reconnects.
    logMessage(LogLevel::Warn, "server", "coordinator link lost");
  }
  peers_.erase(s.id);
}

bool Server::idleEligible(const Session& s) const {
  // The fleet link never idles out, nor does a client awaiting a report.
  const Peer& p = peers_.at(s.id);
  return p.inflight == 0 && !p.coordinator;
}

void Server::onRound(Clock::time_point now) {
  drainOutgoing();
  maintainCoordinatorLink(now);
}

void Server::onDrain() {
  logMessage(LogLevel::Info, "server", "draining: finishing admitted jobs");
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    drainRequested_ = true;
  }
  queueCv_.notify_all();
}

bool Server::drainDone() {
  // Everything produced and handed to a session (or undeliverable).
  if (!executorDone_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lk(outgoingMutex_);
  return outgoing_.empty();
}

void Server::drainOutgoing() {
  std::deque<Outgoing> batch;
  {
    std::lock_guard<std::mutex> lk(outgoingMutex_);
    batch.swap(outgoing_);
  }
  for (Outgoing& o : batch) {
    Session* s = reactor_.find(o.sessionId);
    if (!s) continue;  // Client left; drop its events.
    Peer& p = peers_.at(s->id);
    if (o.msg.op == Op::Report && p.inflight > 0) --p.inflight;
    reactor_.send(*s, o.msg);
  }
}

void Server::handleSubmit(Session& s, const Message& m, bool lease) {
  // A LEASE is a SUBMIT whose job id the coordinator owns: every reply
  // echoes m.jobId (the fleet-global id) so the coordinator can route the
  // result, and rejections carry an ErrCode it can act on (BUSY = try
  // another worker, SIM = the spec itself is bad — don't retry).
  Message reply;
  reply.requestId = m.requestId;
  if (lease) reply.jobId = m.jobId;
  if (reactor_.draining()) {
    reply.op = Op::Busy;
    reply.errorCode = ErrCode::Busy;
    reply.text = "server is draining";
    rejected_.inc();
    reactor_.send(s, reply);
    return;
  }
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
  std::size_t depth = 0;
  const std::uint64_t jobId = nextJobId_;
  const std::uint64_t wireJobId = lease ? m.jobId : jobId;
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    if (pending_.size() >= cfg_.maxQueue) {
      reply.op = Op::Busy;
      reply.errorCode = ErrCode::Busy;
      reply.text = "job queue full (" + std::to_string(cfg_.maxQueue) + ")";
      rejected_.inc();
      reactor_.send(s, reply);
      return;
    }
    QueuedJob q;
    q.jobId = jobId;
    q.wireJobId = wireJobId;
    q.sessionId = s.id;
    q.requestId = m.requestId;
    q.submitted = std::chrono::steady_clock::now();
    q.job = std::move(job);
    pending_.push_back(std::move(q));
    depth = pending_.size();
  }
  nextJobId_++;
  queueCv_.notify_one();
  queueDepthA_.store(depth, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(statsMutex_);
    queueDepthHist_.add(static_cast<double>(depth));
  }
  accepted_.inc();
  peers_.at(s.id).inflight++;
  reply.op = Op::Accepted;
  reply.jobId = wireJobId;
  reactor_.send(s, reply);
  Message status;
  status.op = Op::Status;
  status.requestId = m.requestId;
  status.jobId = wireJobId;
  status.state = JobState::Queued;
  reactor_.send(s, status);
}

void Server::onFrame(Session& s, const Message& m) {
  switch (m.op) {
    case Op::Submit:
      handleSubmit(s, m, /*lease=*/false);
      return;
    case Op::Lease: {
      if (!peers_.at(s.id).coordinator) {
        protocolErrors_.inc();
        Message reply = replyTo(m, Op::Error, "LEASE on a non-coordinator session");
        reply.jobId = m.jobId;
        reply.errorCode = ErrCode::Sim;
        reactor_.send(s, reply);
        return;
      }
      handleSubmit(s, m, /*lease=*/true);
      return;
    }
    case Op::Pong:
      return;  // Keepalive reply; nothing to do.
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
                                   " from a client"));
      return;
  }
}

std::string Server::statsJson() {
  std::ostringstream os;
  os << "{\"server\": ";
  metricsJson(os, metrics_);
  os << ", \"workers\": " << pool_->threadCount();
  {
    std::lock_guard<std::mutex> lk(statsMutex_);
    os << ", \"queue_depth_hist\": ";
    histogramJson(os, queueDepthHist_);
    os << ", \"job_latency_ms\": ";
    histogramJson(os, latencyHist_);
    os << ", \"queue_wait_ms\": ";
    histogramJson(os, queueWaitHist_);
    os << ", \"exec_ms\": ";
    histogramJson(os, execHist_);
  }
  os << "}\n";
  return os.str();
}

std::string Server::metricsText() {
  std::lock_guard<std::mutex> lk(statsMutex_);
  return telemetry::renderPrometheus(metrics_,
                                     {{"queue_depth", &queueDepthHist_},
                                      {"job_latency_ms", &latencyHist_},
                                      {"queue_wait_ms", &queueWaitHist_},
                                      {"exec_ms", &execHist_}},
                                     "renucad_");
}

void Server::jobSpan(const char* stage, const QueuedJob& q, Cycle start, Cycle end) {
  if (!jobTracer_) return;
  std::lock_guard<std::mutex> lk(jobTracerMutex_);
  jobTracer_->span(stage, "job", /*pid=*/1,
                   static_cast<std::uint32_t>(q.jobId), start, end,
                   {{"job_id", static_cast<std::int64_t>(q.jobId)},
                    {"request_id", static_cast<std::int64_t>(q.requestId)},
                    {"session", static_cast<std::int64_t>(q.sessionId)}});
}

std::size_t Server::queueDepthNow() {
  std::lock_guard<std::mutex> lk(queueMutex_);
  return pending_.size();
}

void Server::registerWithCoordinator(Session& s) {
  Message m;
  m.op = Op::Register;
  m.text = "name=" + cfg_.workerName + "\nthreads=" +
           std::to_string(pool_->threadCount()) + "\ncapacity=" +
           std::to_string(pool_->threadCount()) + "\n";
  reactor_.send(s, m);
  logMessage(LogLevel::Info, "server",
             "registering with coordinator as " + cfg_.workerName);
}

void Server::maintainCoordinatorLink(Clock::time_point now) {
  // Heartbeats apply to any live coordinator link, including adopted
  // in-process ones; reconnecting needs a dial address.
  if (reactor_.draining()) return;
  if (coordSessionId_ != 0) {
    if (Session* link = reactor_.find(coordSessionId_); link && !link->dead) {
      if (now - lastHeartbeat_ >= std::chrono::milliseconds(cfg_.heartbeatMs)) {
        lastHeartbeat_ = now;
        double p50 = 0.0;
        {
          std::lock_guard<std::mutex> lk(statsMutex_);
          p50 = queueWaitHist_.percentile(0.50);
        }
        Message hb;
        hb.op = Op::Heartbeat;
        hb.text = "queue_depth=" + std::to_string(queueDepthNow()) +
                  "\ninflight=" +
                  std::to_string(inflightA_.load(std::memory_order_relaxed)) +
                  "\nqueue_wait_p50_ms=" + std::to_string(p50) + "\n";
        reactor_.send(*link, hb);
      }
      return;
    }
    coordSessionId_ = 0;
  }
  if (cfg_.coordinatorAddr.empty()) return;
  if (now < nextCoordAttempt_) return;
  // One pass over the address list per attempt; backoff between attempts
  // happens here in the loop (never a blocking sleep), so live sessions
  // keep being served while the coordinator is down.
  Client c;
  std::string err;
  bool connected = false;
  for (const std::string& addr : Client::splitAddressList(cfg_.coordinatorAddr)) {
    if (c.connectAddress(addr, &err, /*timeoutMs=*/1000)) {
      connected = true;
      break;
    }
  }
  if (!connected) {
    coordBackoffMs_ = coordBackoffMs_ == 0
                          ? 500
                          : std::min(coordBackoffMs_ * 2, cfg_.reconnectMaxMs);
    nextCoordAttempt_ = now + std::chrono::milliseconds(coordBackoffMs_);
    logMessage(LogLevel::Warn, "server",
               "coordinator unreachable (" + err + "); next attempt in " +
                   std::to_string(coordBackoffMs_) + " ms");
    return;
  }
  reactor_.open(c.releaseFd(), kCoordinatorLink);  // onOpen registers.
  coordBackoffMs_ = 0;
}

void Server::executorLoop() {
  for (;;) {
    std::vector<QueuedJob> batch;
    {
      std::unique_lock<std::mutex> lk(queueMutex_);
      queueCv_.wait(lk, [&] { return drainRequested_ || !pending_.empty(); });
      if (pending_.empty()) break;  // Drain requested and nothing left.
      batch.insert(batch.end(), std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
      pending_.clear();
    }
    queueDepthA_.store(0, std::memory_order_relaxed);
    inflightA_.fetch_add(batch.size(), std::memory_order_relaxed);

    const auto usOf = [this](std::chrono::steady_clock::time_point tp) {
      return static_cast<Cycle>(
          std::chrono::duration_cast<std::chrono::microseconds>(tp - startTime_)
              .count());
    };

    sim::SweepPlan plan;
    for (QueuedJob& q : batch) {
      q.admitted = std::chrono::steady_clock::now();
      jobSpan("queued", q, usOf(q.submitted), usOf(q.admitted));
      Message running;
      running.op = Op::Status;
      running.requestId = q.requestId;
      running.jobId = q.wireJobId;
      running.state = JobState::Running;
      postOutgoing(q.sessionId, std::move(running));
      plan.add(q.job);
    }

    sim::SweepOptions opts;
    opts.pool = pool_.get();
    opts.warmStartDir = cfg_.snapshotDir;
    opts.onJobStart = [this, &batch, usOf](std::size_t i) {
      QueuedJob& q = batch[i];
      q.execStart = std::chrono::steady_clock::now();
      jobSpan("admitted", q, usOf(q.admitted), usOf(q.execStart));
      {
        std::lock_guard<std::mutex> lk(statsMutex_);
        queueWaitHist_.add(
            std::chrono::duration<double>(q.execStart - q.submitted).count() *
            1000.0);
      }
    };
    opts.onJobDone = [this, &batch, usOf](std::size_t i, const sim::RunResult& r) {
      const QueuedJob& q = batch[i];
      const auto done = std::chrono::steady_clock::now();
      const double wallSec =
          std::chrono::duration<double>(done - q.submitted).count();
      jobSpan("executing", q, usOf(q.execStart), usOf(done));
      if (jobTracer_) {
        std::lock_guard<std::mutex> lk(jobTracerMutex_);
        jobTracer_->instant("completed", "job", /*pid=*/1,
                            static_cast<std::uint32_t>(q.jobId), usOf(done),
                            {{"failed", r.error.empty() ? 0 : 1}});
      }
      {
        std::lock_guard<std::mutex> lk(statsMutex_);
        latencyHist_.add(wallSec * 1000.0);
        execHist_.add(
            std::chrono::duration<double>(done - q.execStart).count() * 1000.0);
      }
      const bool ok = r.error.empty();
      (ok ? completedA_ : failedA_).fetch_add(1, std::memory_order_relaxed);
      const ErrCode ec =
          ok ? ErrCode::None : (r.errorCode == "io" ? ErrCode::Io : ErrCode::Sim);

      Message status;
      status.op = Op::Status;
      status.requestId = q.requestId;
      status.jobId = q.wireJobId;
      status.state = ok ? JobState::Done : JobState::Failed;
      status.errorCode = ec;
      status.text = ok ? "" : r.error;
      postOutgoing(q.sessionId, std::move(status));

      Message report;
      report.op = Op::Report;
      report.requestId = q.requestId;
      report.jobId = q.wireJobId;
      report.state = ok ? JobState::Done : JobState::Failed;
      report.errorCode = ec;
      report.text = sim::runReportJson("renucad", q.job.config,
                                       {{q.job.label, r}}, wallSec,
                                       pool_->threadCount(), q.job.clientJobId);
      postOutgoing(q.sessionId, std::move(report));
      inflightA_.fetch_sub(1, std::memory_order_relaxed);
    };
    sim::runPlan(plan, opts);
  }
  executorDone_.store(true, std::memory_order_relaxed);
  reactor_.wake();
}

int Server::run() {
  executor_ = std::thread(&Server::executorLoop, this);
  reactor_.run();
  // The executor may still be waiting on the cv if stop arrived with an
  // empty queue (or poll() failed); this only wakes it.
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    drainRequested_ = true;
  }
  queueCv_.notify_all();
  executor_.join();
  drainOutgoing();
  if (jobTracer_) {
    std::lock_guard<std::mutex> lk(jobTracerMutex_);
    jobTracer_->close();
  }
  reactor_.shutdown();
  return 0;
}

}  // namespace renuca::server
