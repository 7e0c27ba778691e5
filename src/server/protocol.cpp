#include "server/protocol.hpp"

#include "serial/archive.hpp"

namespace renuca::server {

const char* toString(Op op) {
  switch (op) {
    case Op::Submit: return "SUBMIT";
    case Op::Stats: return "STATS";
    case Op::Shutdown: return "SHUTDOWN";
    case Op::Ping: return "PING";
    case Op::Metrics: return "METRICS";
    case Op::Register: return "REGISTER";
    case Op::Heartbeat: return "HEARTBEAT";
    case Op::Accepted: return "ACCEPTED";
    case Op::Busy: return "BUSY";
    case Op::Error: return "ERROR";
    case Op::Status: return "STATUS";
    case Op::Report: return "REPORT";
    case Op::StatsReply: return "STATS_REPLY";
    case Op::Pong: return "PONG";
    case Op::MetricsReply: return "METRICS_REPLY";
    case Op::Lease: return "LEASE";
  }
  return "UNKNOWN";
}

bool knownOp(std::uint32_t raw) {
  switch (static_cast<Op>(raw)) {
    case Op::Submit:
    case Op::Stats:
    case Op::Shutdown:
    case Op::Ping:
    case Op::Metrics:
    case Op::Register:
    case Op::Heartbeat:
    case Op::Accepted:
    case Op::Busy:
    case Op::Error:
    case Op::Status:
    case Op::Report:
    case Op::StatsReply:
    case Op::Pong:
    case Op::MetricsReply:
    case Op::Lease:
      return true;
  }
  return false;
}

const char* toString(ErrCode c) {
  switch (c) {
    case ErrCode::None: return "none";
    case ErrCode::Sim: return "sim";
    case ErrCode::Io: return "io";
    case ErrCode::Busy: return "busy";
    case ErrCode::WorkerLost: return "worker_lost";
    case ErrCode::Canceled: return "canceled";
  }
  return "unknown";
}

bool retryable(ErrCode c) {
  switch (c) {
    case ErrCode::Io:
    case ErrCode::Busy:
    case ErrCode::WorkerLost:
      return true;
    case ErrCode::None:
    case ErrCode::Sim:
    case ErrCode::Canceled:
      return false;
  }
  return false;
}

const char* toString(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
  }
  return "unknown";
}

Message replyTo(const Message& req, Op op, std::string text) {
  Message m;
  m.op = op;
  m.requestId = req.requestId;
  m.text = std::move(text);
  return m;
}

std::vector<std::uint8_t> encodeFrame(const Message& m) {
  std::vector<std::uint8_t> payload;
  {
    serial::ArchiveWriter w(&payload);
    w.beginSection("head");
    w.putU32(static_cast<std::uint32_t>(m.op));
    w.putU64(m.requestId);
    w.putU64(m.jobId);
    w.putU32(static_cast<std::uint32_t>(m.state));
    w.putU32(static_cast<std::uint32_t>(m.errorCode));
    w.endSection();
    w.beginSection("body");
    w.putString(m.text);
    w.endSection();
    w.close();
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>(len));
  frame.push_back(static_cast<std::uint8_t>(len >> 8));
  frame.push_back(static_cast<std::uint8_t>(len >> 16));
  frame.push_back(static_cast<std::uint8_t>(len >> 24));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

DecodeStatus decodeFrame(std::vector<std::uint8_t>& buf, std::size_t maxFrameBytes,
                         Message& out, std::string& error) {
  if (buf.size() < 4) return DecodeStatus::NeedMore;
  const std::uint64_t len = static_cast<std::uint64_t>(buf[0]) |
                            (static_cast<std::uint64_t>(buf[1]) << 8) |
                            (static_cast<std::uint64_t>(buf[2]) << 16) |
                            (static_cast<std::uint64_t>(buf[3]) << 24);
  if (len == 0 || len > maxFrameBytes) {
    error = "implausible frame length " + std::to_string(len);
    return DecodeStatus::Fatal;
  }
  if (buf.size() < 4 + len) return DecodeStatus::NeedMore;

  serial::ArchiveReader r(buf.data() + 4, static_cast<std::size_t>(len), "<frame>");
  buf.erase(buf.begin(), buf.begin() + 4 + static_cast<std::size_t>(len));
  if (!r.ok()) {
    error = "corrupt frame payload: " + serial::toString(r.error());
    return DecodeStatus::BadPayload;
  }
  if (!r.openSection("head")) {
    error = "corrupt frame head: " + serial::toString(r.error());
    return DecodeStatus::BadPayload;
  }
  const std::uint32_t rawOp = r.getU32();
  out.requestId = r.getU64();
  out.jobId = r.getU64();
  const std::uint32_t rawState = r.getU32();
  const std::uint32_t rawErr = r.getU32();
  if (!r.ok()) {
    error = "corrupt frame head: " + serial::toString(r.error());
    return DecodeStatus::BadPayload;
  }
  if (!knownOp(rawOp)) {
    error = "unknown opcode " + std::to_string(rawOp);
    return DecodeStatus::BadPayload;
  }
  out.op = static_cast<Op>(rawOp);
  out.state = rawState <= static_cast<std::uint32_t>(JobState::Failed)
                  ? static_cast<JobState>(rawState)
                  : JobState::Queued;
  out.errorCode = rawErr <= static_cast<std::uint32_t>(ErrCode::Canceled)
                      ? static_cast<ErrCode>(rawErr)
                      : ErrCode::None;
  if (!r.openSection("body")) {
    error = "corrupt frame body: " + serial::toString(r.error());
    return DecodeStatus::BadPayload;
  }
  out.text = r.getString();
  if (!r.ok()) {
    error = "corrupt frame body: " + serial::toString(r.error());
    return DecodeStatus::BadPayload;
  }
  return DecodeStatus::Frame;
}

}  // namespace renuca::server
