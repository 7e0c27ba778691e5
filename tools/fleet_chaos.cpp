// fleet_chaos: soak / chaos harness for the sharded simulation fleet.
//
// Spawns a real renuca-coord plus N real renucad workers (the binaries
// next to this one), floods the coordinator with a grid of quick jobs,
// and — while the fleet is busy — SIGKILLs a worker that still holds
// leases, throws junk clients at the socket (garbage frames, a
// byte-dripped frame, a silent staller), and then proves the reliability
// contract:
//
//   * every submitted job produced exactly one report (zero lost, zero
//     duplicated), even though a lease holder was killed;
//   * every report is byte-identical — modulo the provenance fields,
//     i.e. from the "config" key onward — to the same spec run locally
//     through runPlan();
//   * when a worker was killed, the coordinator's stats actually show
//     re-dispatched leases (the fault path fired, not just the happy one).
//
// Exit 0 = contract held.  Registered as the `fleet_chaos` ctest
// (tools/CMakeLists.txt) and used for manual soak runs
// (jobs=2000 workers=5 ...).
//
//   ./fleet_chaos [jobs=60] [workers=3] [kill_after=5] [junk=1] ...
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "common/kvconfig.hpp"
#include "server/client.hpp"
#include "server/jobspec.hpp"
#include "server/protocol.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

using namespace renuca;

namespace {

const char kUsage[] =
    "usage: fleet_chaos [key=value ...]\n"
    "\n"
    "Spawns renuca-coord + N renucad workers, floods them with quick jobs,\n"
    "kills a worker mid-run, injects protocol junk, and verifies zero job\n"
    "loss and byte-identical merged results vs a local run.\n"
    "\n"
    "options:\n"
    "  jobs=N          jobs to submit (default 60)\n"
    "  workers=N       renucad workers to spawn (default 3)\n"
    "  kill_after=N    SIGKILL one worker after N reports (0 = no chaos;\n"
    "                  default 5).  The worker is respawned 1s later.\n"
    "  junk=0|1        also run junk clients: garbage frames, a byte-dripped\n"
    "                  PING, a silent staller (default 1)\n"
    "  verify=N        verify at most N reports against local runs\n"
    "                  (default 0 = all)\n"
    "  timeout_s=N     overall watchdog (default 300)\n"
    "  log_level=LEVEL passed to the spawned daemons (default warn)\n";

struct Child {
  pid_t pid = -1;
  std::string name;
};

std::string exeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "fleet_chaos: execv %s: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

bool waitForSocket(const std::string& path, int timeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  struct stat st{};
  while (std::chrono::steady_clock::now() < deadline) {
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// The stable tail of a run report: everything from the "config" key on.
/// Provenance (timestamps, host, job ids, wall time) all precedes it.
std::string stripProvenance(const std::string& json) {
  const std::size_t pos = json.find("\"config\"");
  return pos == std::string::npos ? json : json.substr(pos);
}

/// Quick deterministic job grid: cycles app x threshold points small
/// enough that a job takes well under a second.
std::vector<std::string> makeGrid(std::size_t jobs) {
  const char* apps[] = {"mcf", "lbm", "milc", "omnetpp"};
  const unsigned thresholds[] = {10, 25, 50};
  std::vector<std::string> specs;
  specs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    const char* app = apps[i % 4];
    const unsigned t = thresholds[(i / 4) % 3];
    specs.push_back("app=" + std::string(app) + "\nthreshold_pct=" +
                    std::to_string(t) +
                    "\nprewarm=50000\nwarmup=1000\ninstr_per_core=3000\nlabel=" +
                    app + "/t" + std::to_string(t) + "\n");
  }
  return specs;
}

/// Junk client 1: a sound frame boundary around a corrupted payload — the
/// coordinator must answer Error (BadPayload) and keep the session usable
/// for the valid PING that follows; it must never crash.
bool junkGarbage(const std::string& sock) {
  server::Client probe;
  if (!probe.connectUnix(sock)) return false;
  const int fd = probe.releaseFd();
  server::Message ping;
  ping.op = server::Op::Ping;
  std::vector<std::uint8_t> frame = server::encodeFrame(ping);
  for (std::size_t i = 4; i < frame.size(); ++i) frame[i] ^= 0x5a;  // Corrupt payload.
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return false;
  }
  server::Client c;
  c.adoptFd(fd);
  c.setIoTimeout(5000);
  server::Message reply;
  std::string err;
  if (!c.receive(reply, &err) || reply.op != server::Op::Error) return false;
  server::Message m;
  m.op = server::Op::Ping;
  m.requestId = 78;
  if (!c.send(m, &err) || !c.receive(reply, &err)) return false;
  return reply.op == server::Op::Pong && reply.requestId == 78;
}

/// Junk client 2: byte-drips a valid PING, one byte per write with pauses,
/// and expects a PONG — slow writers must not be dropped or misparsed.
bool junkByteDrip(const std::string& sock) {
  server::Client probe;
  if (!probe.connectUnix(sock)) return false;
  const int fd = probe.releaseFd();
  server::Message ping;
  ping.op = server::Op::Ping;
  ping.requestId = 77;
  ping.text = "drip";
  const std::vector<std::uint8_t> frame = server::encodeFrame(ping);
  for (std::uint8_t b : frame) {
    if (::send(fd, &b, 1, MSG_NOSIGNAL) != 1) {
      ::close(fd);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server::Client c;
  c.adoptFd(fd);
  c.setIoTimeout(5000);
  server::Message reply;
  std::string err;
  if (!c.receive(reply, &err)) {
    std::fprintf(stderr, "fleet_chaos: byte-drip got no PONG: %s\n", err.c_str());
    return false;
  }
  return reply.op == server::Op::Pong && reply.requestId == 77;
}

double statValue(const std::string& json, const std::string& key) {
  const std::size_t pos = json.find("\"" + key + "\": ");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + key.size() + 4, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::wantsHelp(argc, argv)) return tools::usage(kUsage, false);
  KvConfig kv = KvConfig::fromArgs(argc, argv);
  if (!kv.positional().empty()) {
    std::fprintf(stderr, "fleet_chaos: unexpected argument '%s'\n",
                 kv.positional()[0].c_str());
    return tools::usage(kUsage, true);
  }
  std::string badKey;
  if (!tools::checkKeys(kv,
                        {"jobs", "workers", "kill_after", "junk", "verify",
                         "timeout_s", "log_level"},
                        badKey)) {
    std::fprintf(stderr, "fleet_chaos: unknown option '%s='\n", badKey.c_str());
    return tools::usage(kUsage, true);
  }
  const std::size_t jobs =
      static_cast<std::size_t>(kv.getOr("jobs", std::int64_t{60}));
  const int workers = static_cast<int>(kv.getOr("workers", std::int64_t{3}));
  const std::size_t killAfter =
      static_cast<std::size_t>(kv.getOr("kill_after", std::int64_t{5}));
  const bool junk = kv.getOr("junk", std::int64_t{1}) != 0;
  std::size_t verifyMax =
      static_cast<std::size_t>(kv.getOr("verify", std::int64_t{0}));
  if (verifyMax == 0) verifyMax = jobs;
  const int timeoutS = static_cast<int>(kv.getOr("timeout_s", std::int64_t{300}));
  const std::string logLevel = kv.getOr("log_level", std::string("warn"));
  if (jobs == 0 || workers < 1) {
    std::fprintf(stderr, "fleet_chaos: jobs= and workers= must be positive\n");
    return 1;
  }

  char dirTemplate[] = "/tmp/fleet-chaos-XXXXXX";
  const char* dir = ::mkdtemp(dirTemplate);
  if (!dir) {
    std::fprintf(stderr, "fleet_chaos: mkdtemp: %s\n", std::strerror(errno));
    return 1;
  }
  const std::string coordSock = std::string(dir) + "/coord.sock";
  const std::string bin = exeDir();

  std::vector<Child> children;
  const auto killAll = [&children] {
    for (Child& c : children) {
      if (c.pid > 0) ::kill(c.pid, SIGKILL);
    }
    for (Child& c : children) {
      if (c.pid > 0) ::waitpid(c.pid, nullptr, 0);
    }
    children.clear();
  };
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "fleet_chaos: FAIL: %s\n", why.c_str());
    killAll();
    return 1;
  };

  // Tight fault-detection windows so killed workers are noticed in
  // hundreds of milliseconds, not tens of seconds.
  children.push_back({spawn({bin + "/renuca-coord", "socket=" + coordSock,
                             "lease_timeout_ms=2000", "heartbeat_timeout_ms=1500",
                             "idle_timeout_ms=3000", "log_level=" + logLevel}),
                      "coord"});
  if (!waitForSocket(coordSock, 5000)) {
    return fail("coordinator socket never appeared");
  }
  const auto spawnWorker = [&](int i) {
    return Child{spawn({bin + "/renucad", "coordinator=" + coordSock,
                        "worker_name=w" + std::to_string(i), "jobs=2",
                        "heartbeat_ms=300", "log_level=" + logLevel}),
                 "w" + std::to_string(i)};
  };
  for (int i = 0; i < workers; ++i) children.push_back(spawnWorker(i));

  ::signal(SIGPIPE, SIG_IGN);
  const std::vector<std::string> specs = makeGrid(jobs);

  server::Client client;
  std::string err;
  server::RetryPolicy policy;
  policy.retries = 5;
  if (!client.connectAny({coordSock}, policy, &err)) {
    return fail("client connect: " + err);
  }

  std::printf("fleet_chaos: %zu jobs -> %d workers (kill_after=%zu junk=%d)\n",
              jobs, workers, killAfter, junk ? 1 : 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (client.submit(specs[i], i + 1, &err).empty()) {
      return fail("submit " + std::to_string(i + 1) + ": " + err);
    }
  }

  // The junk clients take a few hundred ms.  With a kill they run right
  // after it: run before collecting, they would let every job finish
  // first, and the kill would hit a worker that holds no lease.
  const auto runJunk = [&]() -> std::string {
    if (!junkGarbage(coordSock)) return "session did not survive a corrupt frame";
    if (!junkByteDrip(coordSock)) return "byte-dripped PING got no PONG";
    // The staller: connects, says nothing, and must be idle-reaped without
    // disturbing anyone.  Deliberately leaked until the end of the run.
    server::Client staller;
    staller.connectUnix(coordSock);
    staller.releaseFd();  // Keep the fd open but stop touching it.
    return "";
  };
  if (junk && killAfter == 0) {
    if (const std::string why = runJunk(); !why.empty()) return fail(why);
  }

  // Collect: one report per request id, in submission order per client.
  std::map<std::uint64_t, std::string> reports;
  std::uint64_t lastReportRequest = 0;
  bool orderViolated = false;
  std::size_t accepted = 0, rejectedCount = 0;
  bool killed = false, respawned = false;
  int killedIdx = -1;
  client.setIoTimeout(2000);  // Bounded reads; the watchdog decides below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeoutS);
  auto respawnAt = std::chrono::steady_clock::time_point{};
  while (reports.size() + rejectedCount < jobs) {
    if (std::chrono::steady_clock::now() > deadline) {
      return fail("watchdog expired with " + std::to_string(reports.size()) +
                  "/" + std::to_string(jobs) + " reports");
    }
    if (killed && !respawned &&
        std::chrono::steady_clock::now() >= respawnAt) {
      children.push_back(spawnWorker(killedIdx));
      respawned = true;
      std::printf("fleet_chaos: respawned worker w%d\n", killedIdx);
    }
    server::Message m;
    if (!client.receive(m, &err)) {
      if (err.rfind("timeout", 0) == 0) continue;  // Watchdog loop decides.
      return fail("receive: " + err);
    }
    switch (m.op) {
      case server::Op::Accepted:
        ++accepted;
        break;
      case server::Op::Busy:
      case server::Op::Error:
        ++rejectedCount;
        std::fprintf(stderr, "fleet_chaos: request %llu rejected: %s\n",
                     static_cast<unsigned long long>(m.requestId),
                     m.text.c_str());
        break;
      case server::Op::Status:
        break;
      case server::Op::Report: {
        if (reports.count(m.requestId)) {
          return fail("duplicate report for request " +
                      std::to_string(m.requestId));
        }
        if (m.requestId <= lastReportRequest) orderViolated = true;
        lastReportRequest = m.requestId;
        reports[m.requestId] = m.text;
        if (m.state == server::JobState::Failed) {
          return fail("job for request " + std::to_string(m.requestId) +
                      " failed: " + m.text);
        }
        if (killAfter > 0 && !killed && reports.size() >= killAfter) {
          killedIdx = 0;
          ::kill(children[1].pid, SIGKILL);  // children[0] is the coordinator.
          ::waitpid(children[1].pid, nullptr, 0);
          children[1].pid = -1;
          killed = true;
          respawnAt = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(1000);
          std::printf("fleet_chaos: SIGKILLed worker w0 after %zu reports\n",
                      reports.size());
          if (junk) {
            if (const std::string why = runJunk(); !why.empty()) return fail(why);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  if (rejectedCount > 0) {
    return fail(std::to_string(rejectedCount) + " submissions rejected");
  }
  if (orderViolated) {
    return fail("reports arrived out of submission order");
  }
  if (killAfter > 0 && !killed) {
    return fail("run finished before the kill point; raise jobs= or lower "
                "kill_after=");
  }

  // The fault path must actually have fired when we killed a worker.
  if (killed) {
    server::Message statsReq;
    statsReq.op = server::Op::Stats;
    statsReq.requestId = 9999;
    server::Message statsReply;
    if (!client.send(statsReq, &err) || !client.receive(statsReply, &err)) {
      return fail("stats after chaos: " + err);
    }
    const double redispatched =
        statValue(statsReply.text, "coord/redispatched");
    const double lost = statValue(statsReply.text, "coord/workers_lost");
    std::printf("fleet_chaos: coordinator saw %g lost worker(s), %g "
                "re-dispatch(es)\n",
                lost, redispatched);
    if (lost < 1.0) {
      return fail("coordinator never noticed the killed worker");
    }
    if (redispatched < 1.0) {
      return fail("the killed worker held no lease, so nothing was re-dispatched; "
                  "raise jobs= or lower kill_after=");
    }
  }

  // Graceful fleet teardown: drain the coordinator, then stop workers.
  // It comes before the local verification runs, which can outlast the
  // coordinator's client idle timeout.
  server::Message shutdown;
  shutdown.op = server::Op::Shutdown;
  shutdown.requestId = 10000;
  client.send(shutdown, &err);
  client.close();
  if (children[0].pid > 0) {
    int status = 0;
    ::waitpid(children[0].pid, &status, 0);
    children[0].pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return fail("coordinator exited uncleanly");
    }
  }
  for (Child& c : children) {
    if (c.pid > 0) ::kill(c.pid, SIGTERM);
  }
  for (Child& c : children) {
    if (c.pid > 0) {
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
  }

  // Byte-exactness: every report's stable tail must match the same spec
  // run locally.  The grid cycles few unique specs, so one local run per
  // unique spec covers every report.
  std::map<std::string, std::string> localBySpec;
  std::size_t verified = 0;
  for (std::size_t i = 0; i < specs.size() && verified < verifyMax; ++i) {
    auto rit = reports.find(i + 1);
    if (rit == reports.end()) {
      return fail("missing report for request " + std::to_string(i + 1));
    }
    auto lit = localBySpec.find(specs[i]);
    if (lit == localBySpec.end()) {
      sim::Job job;
      std::string perr;
      if (!server::parseJobSpec(specs[i], job, perr)) {
        return fail("local parse: " + perr);
      }
      sim::SweepPlan plan;
      const std::string label = job.label;
      const sim::SystemConfig cfg = job.config;
      plan.add(std::move(job));
      sim::SweepOptions opts;
      opts.jobs = 1;
      const std::vector<sim::RunResult> results = sim::runPlan(plan, opts);
      const std::string local = sim::runReportJson(
          "renucad", cfg, {{label, results[0]}}, /*wallSeconds=*/0.0, 1);
      lit = localBySpec.emplace(specs[i], stripProvenance(local)).first;
    }
    if (stripProvenance(rit->second) != lit->second) {
      return fail("report for request " + std::to_string(i + 1) +
                  " differs from the local run");
    }
    ++verified;
  }
  std::printf("fleet_chaos: %zu/%zu reports verified byte-identical to local "
              "runs\n",
              verified, jobs);

  ::unlink(coordSock.c_str());
  ::rmdir(dir);
  std::printf("fleet_chaos: PASS (%zu jobs, zero lost, zero duplicated)\n",
              jobs);
  return 0;
}
