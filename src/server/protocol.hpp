// renucad wire protocol: length-prefixed frames whose payloads are
// in-memory serial::Archive blobs.
//
// A frame is
//
//   [u32 payloadLen (LE)][payload]
//
// and the payload is a complete archive (magic "RENUCACP", version, tagged
// FNV-1a-checksummed sections — serial/archive.hpp), with two sections:
//
//   "head"  u32 opcode, u64 requestId, u64 jobId, u32 jobState
//   "body"  string text (job spec / report JSON / stats JSON / error text)
//
// Reusing the archive format means the wire inherits the snapshot layer's
// corruption discipline for free: a flipped bit anywhere in a payload fails
// the section checksum and decodes as BadPayload — the server replies with
// an Error frame and keeps the session; it never crashes and never trusts
// half a message.  Only the outer framing itself going implausible (a
// length of zero or beyond the configured cap) is Fatal, because the byte
// stream can no longer be resynchronized; the connection is closed.
//
// Opcode semantics (client -> server):
//   Submit    body = job spec ("key=value" lines, server/jobspec.hpp).
//             Reply: Accepted (jobId assigned) | Busy (queue full or
//             draining) | Error (spec rejected).  An accepted job then
//             streams Status frames (Queued/Running/Done|Failed) and one
//             Report frame carrying the renuca-run-report JSON.
//   Stats     Reply: StatsReply, body = server health JSON (the telemetry
//             metrics registry's counters/gauges plus queue-depth and
//             latency histograms).
//   Shutdown  Begin a graceful drain (same as SIGTERM).  Reply: Accepted.
//   Ping      Reply: Pong.  Liveness probe.
//   Metrics   Reply: MetricsReply, body = the same registry rendered as
//             Prometheus text exposition (telemetry/prometheus.hpp), for
//             scrapers.
//
// Fleet opcodes (renucad worker <-> renuca-coord coordinator):
//   Register  Worker -> coordinator, once per connection: body is
//             "key=value" worker info (name=, threads=, capacity=).  The
//             connection then carries leases toward the worker and
//             status/report traffic back.
//   Heartbeat Worker -> coordinator, periodic liveness + load
//             ("queue_depth=", "inflight=", "queue_wait_p50_ms=").  No
//             reply; a worker silent past the heartbeat timeout is dead.
//   Lease     Coordinator -> worker: one job grant.  jobId is the fleet-
//             global job id and the lease key; the worker echoes it on the
//             Accepted/Busy/Error admission reply and on every Status /
//             Report frame, so the coordinator can commit results
//             at-most-once and discard a zombie's late duplicates.
//
// errorCode classifies Failed results so the coordinator can tell
// retryable failures (I/O, a BUSY worker, a lost worker) from fatal ones
// (a deterministic simulation error, which would fail identically on any
// worker) — see retryable().
//
// requestId is chosen by the client and echoed verbatim on every frame the
// server sends about that request (including job status/report frames), so
// one connection can multiplex many in-flight submissions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace renuca::server {

inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class Op : std::uint32_t {
  // Client -> server.
  Submit = 1,
  Stats = 2,
  Shutdown = 3,
  Ping = 4,
  Metrics = 5,
  // Worker -> coordinator.
  Register = 6,
  Heartbeat = 7,
  // Server -> client.
  Accepted = 10,
  Busy = 11,
  Error = 12,
  Status = 13,
  Report = 14,
  StatsReply = 15,
  Pong = 16,
  MetricsReply = 17,
  // Coordinator -> worker.
  Lease = 18,
};
const char* toString(Op op);
bool knownOp(std::uint32_t raw);

enum class JobState : std::uint32_t { Queued = 0, Running = 1, Done = 2, Failed = 3 };
const char* toString(JobState s);

/// Why a job failed, coarse enough to decide whether another attempt can
/// succeed.  Travels in the frame head next to JobState and mirrors
/// RunResult::errorCode ("sim" / "io") for simulation failures.
enum class ErrCode : std::uint32_t {
  None = 0,        ///< No error.
  Sim = 1,         ///< Deterministic simulation failure — fatal, never retry.
  Io = 2,          ///< I/O or resource failure — may succeed elsewhere.
  Busy = 3,        ///< Worker admission queue full — retry later.
  WorkerLost = 4,  ///< Lease holder died or its lease expired.
  Canceled = 5,    ///< Abandoned (client gone, coordinator draining).
};
const char* toString(ErrCode c);
/// True when a fresh attempt on a (different) worker could succeed.
bool retryable(ErrCode c);

/// One decoded protocol message (either direction).
struct Message {
  Op op = Op::Ping;
  std::uint64_t requestId = 0;  ///< Client-chosen; echoed on replies/events.
  std::uint64_t jobId = 0;      ///< Server-assigned (0 before admission).
  JobState state = JobState::Queued;  ///< Meaningful on Status frames.
  ErrCode errorCode = ErrCode::None;  ///< Failure class on Failed frames.
  std::string text;             ///< Spec / report / stats JSON / error text.
};

/// A reply to `req`: `op` carrying `text`, with req's requestId echoed.
Message replyTo(const Message& req, Op op, std::string text);

/// Encodes a message as one complete frame (length prefix included).
std::vector<std::uint8_t> encodeFrame(const Message& m);

enum class DecodeStatus : std::uint8_t {
  NeedMore,    ///< The buffer does not yet hold a complete frame.
  Frame,       ///< One message decoded; its bytes were consumed.
  BadPayload,  ///< A complete frame was consumed but its payload is corrupt.
  Fatal,       ///< Framing implausible; the stream cannot be resynced.
};

/// Attempts to decode one frame from the front of `buf`.  On Frame and
/// BadPayload the frame's bytes are removed from `buf`; on BadPayload and
/// Fatal `error` describes the damage.
DecodeStatus decodeFrame(std::vector<std::uint8_t>& buf, std::size_t maxFrameBytes,
                         Message& out, std::string& error);

}  // namespace renuca::server
