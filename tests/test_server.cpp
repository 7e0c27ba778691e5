// Simulation service tests: wire protocol round-trips and corruption
// handling, job-spec validation, and the renucad server driven entirely
// in-process over socketpair() connections — concurrent clients, queue-full
// admission, graceful drain, stats, and the determinism contract (a served
// report is byte-identical to a local runPlan report modulo provenance).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/jobspec.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "telemetry/json.hpp"

namespace renuca {
namespace {

using server::Client;
using server::DecodeStatus;
using server::JobState;
using server::Message;
using server::Op;

// --- Protocol --------------------------------------------------------------

TEST(Protocol, EveryOpcodeRoundTrips) {
  const Op ops[] = {Op::Submit,   Op::Stats, Op::Shutdown,   Op::Ping,
                    Op::Metrics,  Op::Register, Op::Heartbeat,
                    Op::Accepted, Op::Busy,    Op::Error,
                    Op::Status,   Op::Report, Op::StatsReply, Op::Pong,
                    Op::MetricsReply, Op::Lease};
  for (Op op : ops) {
    Message in;
    in.op = op;
    in.requestId = 0x1122334455667788ull;
    in.jobId = 42;
    in.state = JobState::Running;
    in.errorCode = server::ErrCode::WorkerLost;
    in.text = "payload for " + std::string(server::toString(op));
    std::vector<std::uint8_t> buf = server::encodeFrame(in);
    Message out;
    std::string err;
    ASSERT_EQ(server::decodeFrame(buf, server::kDefaultMaxFrameBytes, out, err),
              DecodeStatus::Frame)
        << err;
    EXPECT_EQ(out.op, in.op);
    EXPECT_EQ(out.requestId, in.requestId);
    EXPECT_EQ(out.jobId, in.jobId);
    EXPECT_EQ(out.state, in.state);
    EXPECT_EQ(out.errorCode, in.errorCode);
    EXPECT_EQ(out.text, in.text);
    EXPECT_TRUE(buf.empty()) << "frame bytes not consumed";
  }
}

TEST(Protocol, EveryErrorCodeRoundTrips) {
  using server::ErrCode;
  for (ErrCode ec : {ErrCode::None, ErrCode::Sim, ErrCode::Io, ErrCode::Busy,
                     ErrCode::WorkerLost, ErrCode::Canceled}) {
    Message in;
    in.op = Op::Report;
    in.state = JobState::Failed;
    in.errorCode = ec;
    std::vector<std::uint8_t> buf = server::encodeFrame(in);
    Message out;
    std::string err;
    ASSERT_EQ(server::decodeFrame(buf, server::kDefaultMaxFrameBytes, out, err),
              DecodeStatus::Frame);
    EXPECT_EQ(out.errorCode, ec);
  }
  // Only I/O-ish conditions are worth a retry; a deterministic failure
  // would fail identically anywhere.
  EXPECT_FALSE(server::retryable(server::ErrCode::None));
  EXPECT_FALSE(server::retryable(server::ErrCode::Sim));
  EXPECT_FALSE(server::retryable(server::ErrCode::Canceled));
  EXPECT_TRUE(server::retryable(server::ErrCode::Io));
  EXPECT_TRUE(server::retryable(server::ErrCode::Busy));
  EXPECT_TRUE(server::retryable(server::ErrCode::WorkerLost));
}

TEST(Protocol, TruncatedFrameNeedsMore) {
  Message m;
  m.op = Op::Ping;
  m.text = "hello";
  const std::vector<std::uint8_t> full = server::encodeFrame(m);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> buf(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    Message out;
    std::string err;
    EXPECT_EQ(server::decodeFrame(buf, server::kDefaultMaxFrameBytes, out, err),
              DecodeStatus::NeedMore)
        << "at cut " << cut;
    EXPECT_EQ(buf.size(), cut) << "partial frame must not be consumed";
  }
}

TEST(Protocol, CorruptPayloadIsBadPayloadAndConsumed) {
  Message m;
  m.op = Op::Submit;
  m.text = "app=mcf";
  // Flip one payload byte at every position; the checksum (or the magic)
  // must catch each, and the damaged frame must be consumed so the stream
  // can continue.
  const std::vector<std::uint8_t> full = server::encodeFrame(m);
  for (std::size_t i = 4; i < full.size(); ++i) {
    std::vector<std::uint8_t> buf = full;
    buf[i] ^= 0x5a;
    Message out;
    std::string err;
    const DecodeStatus st =
        server::decodeFrame(buf, server::kDefaultMaxFrameBytes, out, err);
    EXPECT_EQ(st, DecodeStatus::BadPayload) << "at byte " << i;
    EXPECT_TRUE(buf.empty()) << "corrupt frame must be consumed (byte " << i << ")";
    EXPECT_FALSE(err.empty());
  }
}

TEST(Protocol, ImplausibleLengthIsFatal) {
  Message out;
  std::string err;
  std::vector<std::uint8_t> zero = {0, 0, 0, 0};
  EXPECT_EQ(server::decodeFrame(zero, server::kDefaultMaxFrameBytes, out, err),
            DecodeStatus::Fatal);
  std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(server::decodeFrame(huge, server::kDefaultMaxFrameBytes, out, err),
            DecodeStatus::Fatal);
  // A length just over the configured cap is fatal too.
  Message m;
  m.op = Op::Ping;
  m.text = std::string(256, 'x');
  std::vector<std::uint8_t> buf = server::encodeFrame(m);
  EXPECT_EQ(server::decodeFrame(buf, /*maxFrameBytes=*/16, out, err),
            DecodeStatus::Fatal);
}

TEST(Protocol, BackToBackFramesDecodeInOrder) {
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.op = Op::Status;
    m.requestId = static_cast<std::uint64_t>(i);
    m.state = JobState::Done;
    const std::vector<std::uint8_t> f = server::encodeFrame(m);
    buf.insert(buf.end(), f.begin(), f.end());
  }
  for (int i = 0; i < 5; ++i) {
    Message out;
    std::string err;
    ASSERT_EQ(server::decodeFrame(buf, server::kDefaultMaxFrameBytes, out, err),
              DecodeStatus::Frame);
    EXPECT_EQ(out.requestId, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(buf.empty());
}

// --- Job specs -------------------------------------------------------------

TEST(JobSpec, ValidAppSpecBuildsSingleCoreJob) {
  sim::Job job;
  std::string err;
  ASSERT_TRUE(server::parseJobSpec(
      "app=mcf\nthreshold_pct=25\ninstr_per_core=5000\nlabel=mcf/x25\n", job, err))
      << err;
  EXPECT_EQ(job.label, "mcf/x25");
  EXPECT_EQ(job.config.numCores, 1u);
  EXPECT_DOUBLE_EQ(job.config.cpt.thresholdPct, 25.0);
  EXPECT_EQ(job.config.instrPerCore, 5000u);
  ASSERT_EQ(job.mix.appNames.size(), 1u);
  EXPECT_EQ(job.mix.appNames[0], "mcf");
}

TEST(JobSpec, MixSpecUsesStandardMix) {
  sim::Job job;
  std::string err;
  ASSERT_TRUE(server::parseJobSpec("mix=WL3\ninstr_per_core=2000\n", job, err)) << err;
  EXPECT_EQ(job.mix.name, "WL3");
  EXPECT_EQ(job.config.numCores, job.mix.appNames.size());
  EXPECT_EQ(job.label, "WL3");
}

TEST(JobSpec, MeshOverrideResamplesMixAtTheConfigCoreCount) {
  sim::Job job;
  std::string err;
  ASSERT_TRUE(server::parseJobSpec(
      "mix=WL1\nmesh=8x8\ncores=64\nmc=4\ninstr_per_core=2000\n", job, err))
      << err;
  EXPECT_EQ(job.config.numCores, 64u);
  EXPECT_EQ(job.config.l3.banks, 64u);
  EXPECT_EQ(job.mix.name, "WL1@64");
  EXPECT_EQ(job.mix.appNames.size(), 64u);
  // Cross-field validation still applies through the daemon path.
  EXPECT_FALSE(server::parseJobSpec("mix=WL1\nmesh=4x4\ncores=32\n", job, err));
  EXPECT_FALSE(server::parseJobSpec("mix=WL1\nmc_edge=cornerz\n", job, err));
  EXPECT_NE(err.find("corners"), std::string::npos) << err;
}

TEST(JobSpec, ClientJobIdIsPureProvenance) {
  sim::Job withId, without;
  std::string err;
  ASSERT_TRUE(server::parseJobSpec("app=mcf\njob_id=c123-7\n", withId, err)) << err;
  EXPECT_EQ(withId.clientJobId, "c123-7");
  ASSERT_TRUE(server::parseJobSpec("app=mcf\n", without, err)) << err;
  EXPECT_TRUE(without.clientJobId.empty());
  // Provenance only: the simulation-relevant config is untouched.
  EXPECT_EQ(withId.config.seed, without.config.seed);
  EXPECT_EQ(withId.label, without.label);
}

TEST(JobSpec, RejectsServerOwnedUnknownAndConflictingKeys) {
  sim::Job job;
  std::string err;
  EXPECT_FALSE(server::parseJobSpec("app=mcf\nsnapshot_dir=/tmp/x\n", job, err));
  EXPECT_NE(err.find("server-managed"), std::string::npos) << err;
  EXPECT_FALSE(server::parseJobSpec("app=mcf\nthreshld_pct=25\n", job, err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(server::parseJobSpec("app=mcf\nmix=WL1\n", job, err));
  EXPECT_FALSE(server::parseJobSpec("app=no_such_app\n", job, err));
  EXPECT_FALSE(server::parseJobSpec("mix=WL99\n", job, err));
  EXPECT_FALSE(server::parseJobSpec("rig=no_such_rig\napp=mcf\n", job, err));
  EXPECT_FALSE(server::parseJobSpec("positional_token\n", job, err));
  // app= on a 16-core rig is a core-count mismatch.
  EXPECT_FALSE(server::parseJobSpec("rig=default\napp=mcf\n", job, err));
}

// --- Server harness --------------------------------------------------------

/// Runs a Server on a background thread; connections are socketpair ends
/// adopted in-process, so the tests exercise the real event loop without
/// touching the filesystem or the network.
struct TestServer {
  explicit TestServer(server::ServerConfig cfg) : srv(new server::Server(cfg)) {
    thread = std::thread([this] { rc.store(srv->run()); });
  }
  ~TestServer() {
    if (thread.joinable()) {
      srv->requestStop();
      thread.join();
    }
  }
  Client connect() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    srv->adoptConnection(fds[0]);
    Client c;
    c.adoptFd(fds[1]);
    return c;
  }
  /// Raw variant for injecting malformed bytes.
  int connectRaw() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    srv->adoptConnection(fds[0]);
    return fds[1];
  }
  int stop() {
    srv->requestStop();
    thread.join();
    return rc.load();
  }

  std::unique_ptr<server::Server> srv;
  std::thread thread;
  std::atomic<int> rc{-1};
};

server::ServerConfig smallServer(unsigned workers = 2, std::size_t queue = 64) {
  server::ServerConfig cfg;
  cfg.jobs = workers;
  cfg.maxQueue = queue;
  return cfg;
}

/// A quick single-core job spec (sub-second even in debug builds).
std::string quickSpec(const std::string& app, unsigned threshold) {
  return "app=" + app + "\nthreshold_pct=" + std::to_string(threshold) +
         "\nprewarm=50000\nwarmup=1000\ninstr_per_core=3000\nlabel=" + app +
         "/x" + std::to_string(threshold) + "\n";
}

/// Everything after the provenance fields (report.hpp documents that the
/// provenance all precedes the "config" key).
std::string stripProvenance(const std::string& report) {
  const std::size_t at = report.find("\"config\"");
  EXPECT_NE(at, std::string::npos);
  return at == std::string::npos ? report : report.substr(at);
}

/// Submits and returns the admission reply (Accepted/Busy/Error) for this
/// requestId, skipping any status/report traffic for earlier jobs that
/// multiplexes in between.
Message submit(Client& c, const std::string& spec, std::uint64_t requestId = 1) {
  Message req;
  req.op = Op::Submit;
  req.requestId = requestId;
  req.text = spec;
  EXPECT_TRUE(c.send(req));
  Message reply;
  std::string err;
  while (c.receive(reply, &err)) {
    if (reply.requestId == requestId &&
        (reply.op == Op::Accepted || reply.op == Op::Busy || reply.op == Op::Error))
      return reply;
  }
  ADD_FAILURE() << "connection dropped before admission reply: " << err;
  return reply;
}

/// Receives until the report frame for `requestId` arrives.
Message awaitReport(Client& c, std::uint64_t requestId) {
  Message m;
  std::string err;
  while (c.receive(m, &err)) {
    if (m.op == Op::Report && m.requestId == requestId) return m;
  }
  ADD_FAILURE() << "connection dropped before report: " << err;
  return m;
}

TEST(Server, PingPong) {
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  Message req;
  req.op = Op::Ping;
  req.requestId = 77;
  req.text = "echo me";
  ASSERT_TRUE(c.send(req));
  Message reply;
  ASSERT_TRUE(c.receive(reply));
  EXPECT_EQ(reply.op, Op::Pong);
  EXPECT_EQ(reply.requestId, 77u);
  EXPECT_EQ(reply.text, "echo me");
}

TEST(Server, InvalidSpecGetsErrorAndSessionSurvives) {
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  Message reply = submit(c, "app=mcf\nthreshld_pct=25\n");
  EXPECT_EQ(reply.op, Op::Error);
  EXPECT_FALSE(reply.text.empty());
  // The same session still works afterwards.
  Message req;
  req.op = Op::Ping;
  req.requestId = 2;
  ASSERT_TRUE(c.send(req));
  Message pong;
  ASSERT_TRUE(c.receive(pong));
  EXPECT_EQ(pong.op, Op::Pong);
}

TEST(Server, CorruptFrameGetsErrorReplyAndSessionSurvives) {
  TestServer ts(smallServer(1));
  const int fd = ts.connectRaw();
  Message m;
  m.op = Op::Ping;
  m.requestId = 9;
  std::vector<std::uint8_t> frame = server::encodeFrame(m);
  frame[frame.size() / 2] ^= 0xff;  // Damage the payload, keep the length.
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  Client c;
  c.adoptFd(fd);
  Message reply;
  ASSERT_TRUE(c.receive(reply));
  EXPECT_EQ(reply.op, Op::Error);
  EXPECT_FALSE(reply.text.empty());
  // Stream resynchronized: the next valid frame is answered normally.
  Message req;
  req.op = Op::Ping;
  req.requestId = 10;
  ASSERT_TRUE(c.send(req));
  Message pong;
  ASSERT_TRUE(c.receive(pong));
  EXPECT_EQ(pong.op, Op::Pong);
  EXPECT_EQ(pong.requestId, 10u);
}

TEST(Server, ImplausibleFrameLengthClosesConnection) {
  TestServer ts(smallServer(1));
  const int fd = ts.connectRaw();
  const std::uint8_t junk[] = {0xff, 0xff, 0xff, 0xff, 1, 2, 3};
  ASSERT_EQ(::send(fd, junk, sizeof(junk), 0), static_cast<ssize_t>(sizeof(junk)));
  Client c;
  c.adoptFd(fd);
  Message reply;
  std::string err;
  EXPECT_FALSE(c.receive(reply, &err));  // Server hangs up, no crash.
}

TEST(Server, SubmitStreamsStatusAndReport) {
  TestServer ts(smallServer(2));
  Client c = ts.connect();
  Message reply = submit(c, quickSpec("mcf", 25));
  ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
  EXPECT_NE(reply.jobId, 0u);

  bool sawQueued = false, sawRunning = false, sawDone = false;
  Message m;
  for (;;) {
    ASSERT_TRUE(c.receive(m));
    if (m.op == Op::Status) {
      sawQueued |= m.state == JobState::Queued;
      sawRunning |= m.state == JobState::Running;
      sawDone |= m.state == JobState::Done;
      continue;
    }
    ASSERT_EQ(m.op, Op::Report);
    break;
  }
  EXPECT_TRUE(sawQueued);
  EXPECT_TRUE(sawRunning);
  EXPECT_TRUE(sawDone);
  EXPECT_EQ(m.state, JobState::Done);
  EXPECT_NE(m.text.find("renuca-run-report"), std::string::npos);
  EXPECT_NE(m.text.find("\"mcf/x25\""), std::string::npos);
}

TEST(Server, ValidSpecCompletesWithoutErrorField) {
  // Strict admission means a spec that clears validation should never come
  // back Failed; the Failed path itself is covered at the sweep level
  // (test_sweep's RunResult::error tests).
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  Message reply = submit(c, quickSpec("lbm", 10));
  ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
  Message report = awaitReport(c, 1);
  EXPECT_EQ(report.state, JobState::Done);
  EXPECT_EQ(report.text.find("\"error\""), std::string::npos);
}

TEST(Server, EightConcurrentClientsMatchLocalRunByteForByte) {
  TestServer ts(smallServer(4));
  const char* apps[] = {"mcf",  "GemsFDTD", "lbm",    "milc",
                        "astar", "bwaves",  "bzip2",  "leslie3d"};
  const unsigned thresholds[] = {3, 5, 10, 20, 25, 33, 50, 75};

  std::vector<std::string> served(8);
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&ts, &served, &apps, &thresholds, i] {
      Client c = ts.connect();
      Message reply = submit(c, quickSpec(apps[i], thresholds[i]),
                             static_cast<std::uint64_t>(i + 1));
      ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
      Message report = awaitReport(c, static_cast<std::uint64_t>(i + 1));
      EXPECT_EQ(report.state, JobState::Done);
      served[static_cast<std::size_t>(i)] = report.text;
    });
  }
  for (std::thread& t : clients) t.join();

  // The same jobs run locally, serially, through the plain sweep engine.
  sim::SweepPlan plan;
  for (int i = 0; i < 8; ++i) {
    sim::Job job;
    std::string err;
    ASSERT_TRUE(server::parseJobSpec(quickSpec(apps[i], thresholds[i]), job, err))
        << err;
    plan.add(std::move(job));
  }
  const std::vector<sim::RunResult> local = sim::runPlan(plan);
  for (int i = 0; i < 8; ++i) {
    ASSERT_FALSE(served[static_cast<std::size_t>(i)].empty()) << apps[i];
    const std::string localReport = sim::runReportJson(
        "renucad", plan.jobs()[static_cast<std::size_t>(i)].config,
        {{plan.jobs()[static_cast<std::size_t>(i)].label,
          local[static_cast<std::size_t>(i)]}},
        0.0, 1);
    EXPECT_EQ(stripProvenance(served[static_cast<std::size_t>(i)]),
              stripProvenance(localReport))
        << apps[i] << " served report diverged from the local run";
  }
}

TEST(Server, QueueFullAnswersBusy) {
  server::ServerConfig cfg = smallServer(/*workers=*/1, /*queue=*/1);
  TestServer ts(cfg);
  Client c = ts.connect();

  // Job A: long enough to still be running while we flood the queue.
  Message a = submit(c, "app=mcf\nprewarm=2000000\nwarmup=2000\n"
                        "instr_per_core=200000\nlabel=long\n", 1);
  ASSERT_EQ(a.op, Op::Accepted) << a.text;
  // Wait until A is actually running, i.e. the executor has taken its
  // batch and the pending queue is empty again.
  Message m;
  do {
    ASSERT_TRUE(c.receive(m));
  } while (!(m.op == Op::Status && m.state == JobState::Running));

  // B fills the 1-slot queue, C must bounce.
  Message b = submit(c, quickSpec("lbm", 10), 2);
  ASSERT_EQ(b.op, Op::Accepted) << b.text;
  Message cReply = submit(c, quickSpec("milc", 10), 3);
  EXPECT_EQ(cReply.op, Op::Busy);
  EXPECT_NE(cReply.text.find("full"), std::string::npos);

  // Both admitted jobs still complete and report.
  int reports = 0;
  while (reports < 2) {
    ASSERT_TRUE(c.receive(m));
    if (m.op == Op::Report) ++reports;
  }
}

TEST(Server, GracefulDrainDeliversEveryAdmittedReport) {
  TestServer ts(smallServer(2));
  Client c = ts.connect();
  Message r1 = submit(c, quickSpec("mcf", 25), 1);
  ASSERT_EQ(r1.op, Op::Accepted);
  Message r2 = submit(c, quickSpec("lbm", 10), 2);
  ASSERT_EQ(r2.op, Op::Accepted);

  Message req;
  req.op = Op::Shutdown;
  req.requestId = 99;
  ASSERT_TRUE(c.send(req));

  bool shutdownAcked = false;
  int reports = 0;
  Message m;
  while (c.receive(m)) {
    if (m.op == Op::Accepted && m.requestId == 99) shutdownAcked = true;
    if (m.op == Op::Report) ++reports;
    if (shutdownAcked && reports == 2) break;
  }
  EXPECT_TRUE(shutdownAcked);
  EXPECT_EQ(reports, 2);

  // Submissions after the drain began bounce with BUSY.
  Message late;
  late.op = Op::Submit;
  late.requestId = 100;
  late.text = quickSpec("milc", 10);
  if (c.send(late)) {
    Message reply;
    if (c.receive(reply)) EXPECT_EQ(reply.op, Op::Busy);
  }
  EXPECT_EQ(ts.stop(), 0) << "drain must exit cleanly";
}

TEST(Server, StatsReportHealthJson) {
  TestServer ts(smallServer(2));
  Client c = ts.connect();
  Message reply = submit(c, quickSpec("mcf", 25));
  ASSERT_EQ(reply.op, Op::Accepted);
  awaitReport(c, 1);

  Message req;
  req.op = Op::Stats;
  req.requestId = 5;
  ASSERT_TRUE(c.send(req));
  Message stats;
  ASSERT_TRUE(c.receive(stats));
  ASSERT_EQ(stats.op, Op::StatsReply);

  std::string err;
  auto doc = telemetry::parseJson(stats.text, &err);
  ASSERT_TRUE(doc) << err << "\n" << stats.text;
  const telemetry::JsonValue* srv = doc->find("server");
  ASSERT_TRUE(srv && srv->isObject());
  const telemetry::JsonValue* accepted = srv->find("server/accepted");
  ASSERT_TRUE(accepted && accepted->isNumber());
  EXPECT_GE(accepted->number, 1.0);
  const telemetry::JsonValue* completed = srv->find("server/completed");
  ASSERT_TRUE(completed && completed->isNumber());
  EXPECT_GE(completed->number, 1.0);
  const telemetry::JsonValue* lat = doc->find("job_latency_ms");
  ASSERT_TRUE(lat && lat->isObject());
  const telemetry::JsonValue* count = lat->find("count");
  ASSERT_TRUE(count && count->isNumber());
  EXPECT_GE(count->number, 1.0);
  EXPECT_TRUE(doc->find("queue_depth_hist"));
}

TEST(Server, StatsKeySetIsStable) {
  // Golden key-set: monitoring dashboards key on these names, so adding is
  // fine but renaming/dropping must be a conscious, test-breaking act.
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  Message req;
  req.op = Op::Stats;
  req.requestId = 1;
  ASSERT_TRUE(c.send(req));
  Message stats;
  ASSERT_TRUE(c.receive(stats));
  ASSERT_EQ(stats.op, Op::StatsReply);

  std::string err;
  auto doc = telemetry::parseJson(stats.text, &err);
  ASSERT_TRUE(doc) << err;
  std::set<std::string> topKeys;
  for (const auto& [k, v] : doc->object) topKeys.insert(k);
  const std::set<std::string> expectedTop = {
      "server", "workers", "queue_depth_hist", "job_latency_ms",
      "queue_wait_ms", "exec_ms"};
  EXPECT_EQ(topKeys, expectedTop);

  std::set<std::string> serverKeys;
  for (const auto& [k, v] : doc->find("server")->object) serverKeys.insert(k);
  const std::set<std::string> expectedServer = {
      "server/accepted",  "server/rejected", "server/protocol_errors",
      "server/inflight",  "server/completed", "server/failed",
      "server/queue_depth", "server/sessions"};
  EXPECT_EQ(serverKeys, expectedServer);
}

TEST(Server, MetricsReplyIsStablePrometheusText) {
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  Message reply = submit(c, quickSpec("mcf", 25));
  ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
  awaitReport(c, 1);

  Message req;
  req.op = Op::Metrics;
  req.requestId = 7;
  ASSERT_TRUE(c.send(req));
  Message metrics;
  ASSERT_TRUE(c.receive(metrics));
  ASSERT_EQ(metrics.op, Op::MetricsReply);
  EXPECT_EQ(metrics.requestId, 7u);

  // Parse the exposition text: every family has a TYPE line, every sample
  // line is "name[{labels}] value" with a finite numeric value.
  std::map<std::string, std::string> families;  // name -> type
  std::istringstream is(metrics.text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, type;
      ls >> name >> type;
      families[name] = type;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);

  // Golden family set (the scrape-config contract).
  const std::map<std::string, std::string> expected = {
      {"renucad_server_accepted", "counter"},
      {"renucad_server_rejected", "counter"},
      {"renucad_server_protocol_errors", "counter"},
      {"renucad_server_inflight", "gauge"},
      {"renucad_server_completed", "gauge"},
      {"renucad_server_failed", "gauge"},
      {"renucad_server_queue_depth", "gauge"},
      {"renucad_server_sessions", "gauge"},
      {"renucad_queue_depth", "histogram"},
      {"renucad_job_latency_ms", "histogram"},
      {"renucad_queue_wait_ms", "histogram"},
      {"renucad_exec_ms", "histogram"}};
  EXPECT_EQ(families, expected);

  // The completed job is visible to a scraper.
  EXPECT_NE(metrics.text.find("renucad_server_completed 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.text.find("renucad_exec_ms_count 1\n"), std::string::npos);
}

TEST(Server, SubmittedJobIdEchoesInReportProvenance) {
  TestServer ts(smallServer(1));
  Client c = ts.connect();
  std::string err;
  const std::string jobId = c.submit(quickSpec("mcf", 25), /*requestId=*/1, &err);
  ASSERT_FALSE(jobId.empty()) << err;
  Message report = awaitReport(c, 1);
  ASSERT_EQ(report.state, JobState::Done);

  auto doc = telemetry::parseJson(report.text, &err);
  ASSERT_TRUE(doc) << err;
  const telemetry::JsonValue* echoed = doc->find("job_id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->str, jobId);
  // job_id is provenance: it precedes "config", so the determinism
  // comparison (everything from "config" on) is unaffected by it.
  EXPECT_LT(report.text.find("\"job_id\""), report.text.find("\"config\""));
  EXPECT_EQ(stripProvenance(report.text).find("\"job_id\""), std::string::npos)
      << "job_id leaked past the provenance prefix";
}

TEST(Server, LifecycleTraceRecordsJobStages) {
  const std::string path =
      std::string(::testing::TempDir()) + "server.jobs.trace.json";
  server::ServerConfig cfg = smallServer(1);
  cfg.traceJsonPath = path;
  std::uint64_t jobId = 0;
  {
    TestServer ts(cfg);
    Client c = ts.connect();
    Message reply = submit(c, quickSpec("mcf", 25));
    ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
    jobId = reply.jobId;
    awaitReport(c, 1);
    EXPECT_EQ(ts.stop(), 0);  // Drain closes (and footers) the trace.
  }

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string err;
  auto doc = telemetry::parseJson(buf.str(), &err);
  ASSERT_TRUE(doc) << err;
  const telemetry::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events && events->isArray());

  std::set<std::string> stages;
  for (const telemetry::JsonValue& e : events->array) {
    const telemetry::JsonValue* name = e.find("name");
    const telemetry::JsonValue* cat = e.find("cat");
    if (!name || !cat || cat->str != "job") continue;
    stages.insert(name->str);
    // The span's thread lane is the server-assigned job id, and its args
    // carry the client-facing identifiers.
    EXPECT_EQ(e.find("tid")->number, static_cast<double>(jobId));
    if (name->str != "completed") {
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("request_id"), nullptr);
    }
  }
  const std::set<std::string> expected = {"queued", "admitted", "executing",
                                          "completed"};
  EXPECT_EQ(stages, expected);
  std::remove(path.c_str());
}

TEST(Server, ByteDrippedFrameDecodesOnceComplete) {
  // A slow writer trickling one byte at a time must not confuse the
  // framing: nothing happens until the frame completes, then it is
  // answered normally.
  TestServer ts(smallServer(1));
  const int fd = ts.connectRaw();
  Message m;
  m.op = Op::Ping;
  m.requestId = 41;
  m.text = "dripped";
  const std::vector<std::uint8_t> frame = server::encodeFrame(m);
  for (std::uint8_t byte : frame) {
    ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Client c;
  c.adoptFd(fd);
  Message pong;
  ASSERT_TRUE(c.receive(pong));
  EXPECT_EQ(pong.op, Op::Pong);
  EXPECT_EQ(pong.requestId, 41u);
  EXPECT_EQ(pong.text, "dripped");
}

TEST(Server, TruncatedFrameAtEofClosesWithoutDisturbingOthers) {
  TestServer ts(smallServer(1));
  const int fd = ts.connectRaw();
  Message m;
  m.op = Op::Ping;
  m.text = "never finished";
  const std::vector<std::uint8_t> frame = server::encodeFrame(m);
  // Half a frame, then EOF: the server just drops the session.
  ASSERT_EQ(::send(fd, frame.data(), frame.size() / 2, 0),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(fd);
  // An unrelated session is unaffected.
  Client c = ts.connect();
  Message req;
  req.op = Op::Ping;
  req.requestId = 1;
  ASSERT_TRUE(c.send(req));
  Message pong;
  ASSERT_TRUE(c.receive(pong));
  EXPECT_EQ(pong.op, Op::Pong);
}

TEST(Server, SlowReaderGetsBackpressureNotDataLoss) {
  // A tiny soft write buffer forces the server to stop reading this
  // session while its replies sit unsent; once the client finally reads,
  // every reply arrives intact and in order.
  server::ServerConfig cfg = smallServer(1);
  cfg.softWriteBuffer = 1024;
  TestServer ts(cfg);
  Client c = ts.connect();
  const int kPings = 20;
  const std::string payload(4096, 'p');
  for (int i = 1; i <= kPings; ++i) {
    Message req;
    req.op = Op::Ping;
    req.requestId = static_cast<std::uint64_t>(i);
    req.text = payload;
    ASSERT_TRUE(c.send(req));
  }
  // Let the backlog build before draining anything.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 1; i <= kPings; ++i) {
    Message pong;
    ASSERT_TRUE(c.receive(pong)) << "lost reply " << i;
    EXPECT_EQ(pong.op, Op::Pong);
    EXPECT_EQ(pong.requestId, static_cast<std::uint64_t>(i));
    EXPECT_EQ(pong.text, payload);
  }
  // The session survived the squeeze.
  Message req;
  req.op = Op::Ping;
  req.requestId = 999;
  ASSERT_TRUE(c.send(req));
  Message pong;
  ASSERT_TRUE(c.receive(pong));
  EXPECT_EQ(pong.requestId, 999u);
}

TEST(Server, ReaderPastMaxWriteBufferIsDroppedOthersUnaffected) {
  server::ServerConfig cfg = smallServer(1);
  cfg.softWriteBuffer = 1024;
  cfg.maxWriteBuffer = 16 * 1024;
  TestServer ts(cfg);
  Client hog = ts.connect();
  Client bystander = ts.connect();

  // One reply bigger than the whole write budget: the hog is marked dead
  // the moment the reply is queued.  The close is best-effort-flushed, so
  // the client may still read already-buffered bytes — but the connection
  // must then be over (EOF, not a timeout, and no further service).
  Message req;
  req.op = Op::Ping;
  req.requestId = 1;
  req.text = std::string(64 * 1024, 'x');
  ASSERT_TRUE(hog.send(req));
  Message m;
  std::string err;
  hog.setIoTimeout(5000);
  bool closed = false;
  for (int i = 0; i < 3 && !closed; ++i) closed = !hog.receive(m, &err);
  EXPECT_TRUE(closed) << "oversized backlog was not dropped";
  EXPECT_EQ(err.find("timeout"), std::string::npos) << err;

  // The bystander never notices.
  Message ping;
  ping.op = Op::Ping;
  ping.requestId = 2;
  ASSERT_TRUE(bystander.send(ping));
  Message pong;
  ASSERT_TRUE(bystander.receive(pong));
  EXPECT_EQ(pong.op, Op::Pong);
  EXPECT_EQ(pong.requestId, 2u);
}

TEST(Server, StalledSessionPastIdleTimeoutIsReaped) {
  server::ServerConfig cfg = smallServer(1);
  cfg.idleTimeoutMs = 200;
  TestServer ts(cfg);
  Client stalled = ts.connect();
  Client active = ts.connect();

  // The active session keeps talking well past the idle window...
  for (int i = 0; i < 10; ++i) {
    Message req;
    req.op = Op::Ping;
    req.requestId = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(active.send(req));
    Message pong;
    ASSERT_TRUE(active.receive(pong));
    EXPECT_EQ(pong.op, Op::Pong);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // ...while the stalled one is closed by the server (EOF, not timeout).
  stalled.setIoTimeout(5000);
  Message m;
  std::string err;
  EXPECT_FALSE(stalled.receive(m, &err));
  EXPECT_EQ(err.find("timeout"), std::string::npos) << err;
}

TEST(Server, SessionDisconnectDuringJobDoesNotCrash) {
  TestServer ts(smallServer(1));
  {
    Client c = ts.connect();
    Message reply = submit(c, quickSpec("mcf", 25));
    ASSERT_EQ(reply.op, Op::Accepted);
    // Client leaves before the report arrives.
  }
  // The server finishes the orphaned job, drops its report, and keeps
  // serving.
  Client c2 = ts.connect();
  Message reply = submit(c2, quickSpec("lbm", 10));
  ASSERT_EQ(reply.op, Op::Accepted) << reply.text;
  Message report = awaitReport(c2, 1);
  EXPECT_EQ(report.state, JobState::Done);
  EXPECT_EQ(ts.stop(), 0);
}

/// One "server/..." value from a STATS reply over `c`.
double serverStat(Client& c, const std::string& key) {
  Message req;
  req.op = Op::Stats;
  req.requestId = 4242;
  EXPECT_TRUE(c.send(req));
  Message reply;
  EXPECT_TRUE(c.receive(reply));
  auto doc = telemetry::parseJson(reply.text);
  const telemetry::JsonValue* v = doc ? doc->find("server") : nullptr;
  v = v ? v->find(key) : nullptr;
  return v && v->isNumber() ? v->number : -1.0;
}

TEST(Server, DeadSessionIsReapedWhileItsPeerIsNotReading) {
  // A client that stops reading fills its socket with PONGs; its job's
  // Report, queued from the executor's output, then pushes the backlog
  // past maxWriteBuffer.  The server must close that session in the same
  // round: with the peer's socket full, POLLOUT never fires, so waiting
  // for I/O would keep the fd and the backlog until the client hangs up.
  server::ServerConfig cfg = smallServer(1);
  cfg.maxWriteBuffer = 24 * 1024;
  TestServer ts(cfg);
  int fds[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 1024;  // The kernel then holds only a few KiB in flight.
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  ASSERT_EQ(setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)), 0);
  ts.srv->adoptConnection(fds[0]);
  Client hog;
  hog.adoptFd(fds[1]);
  Client bystander = ts.connect();

  // Epoch samples every 10 instructions make the Report (~32 KB) larger
  // than the whole write budget, while the 16 PONGs stay within it.
  Message req;
  req.op = Op::Submit;
  req.requestId = 1;
  req.text = quickSpec("mcf", 25) + "epoch_instrs=10\n";
  ASSERT_TRUE(hog.send(req));
  for (int i = 0; i < 16; ++i) {
    Message ping;
    ping.op = Op::Ping;
    ping.requestId = static_cast<std::uint64_t>(100 + i);
    ping.text = std::string(1024, 'p');
    ASSERT_TRUE(hog.send(ping));
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (serverStat(bystander, "server/completed") < 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(serverStat(bystander, "server/completed"), 1.0);
  const auto closeBy = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double sessions = serverStat(bystander, "server/sessions");
  while (sessions != 1.0 && std::chrono::steady_clock::now() < closeBy) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sessions = serverStat(bystander, "server/sessions");
  }
  EXPECT_EQ(sessions, 1.0) << "the overflowed session was never closed";

  // The hog, reading at last, gets what was in flight and then EOF.
  hog.setIoTimeout(5000);
  Message m;
  std::string err;
  while (hog.receive(m, &err)) {
  }
  EXPECT_EQ(err.find("timeout"), std::string::npos) << err;
}

TEST(Client, ConnectTcpRejectsBadPortsBeforeDialing) {
  for (const char* addr : {"h:", "h:70000", "h:1a", "127.0.0.1:"}) {
    Client c;
    std::string err;
    EXPECT_FALSE(c.connectTcp(addr, &err, /*timeoutMs=*/1000)) << addr;
    EXPECT_NE(err.find("bad port"), std::string::npos) << addr << ": " << err;
  }
  Client c;
  std::string err;
  EXPECT_FALSE(c.connectTcp("127.0.0.1", &err));
  EXPECT_NE(err.find("want host:port"), std::string::npos) << err;
}

}  // namespace
}  // namespace renuca
