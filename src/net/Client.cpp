//===- net/Client.cpp -----------------------------------------------------------//

#include "net/Client.h"

#include "support/Format.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dlq;
using namespace dlq::net;

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Client::connect(const std::string &Host, uint16_t Port,
                     std::string &Err) {
  close();
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = formatString("socket: %s", std::strerror(errno));
    return false;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = formatString("bad address '%s'", Host.c_str());
    close();
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = formatString("connect %s:%u: %s", Host.c_str(), Port,
                       std::strerror(errno));
    close();
    return false;
  }
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return true;
}

bool Client::sendAll(const uint8_t *Data, size_t N, std::string &Err) {
  size_t Off = 0;
  while (Off != N) {
    ssize_t W = ::send(Fd, Data + Off, N - Off, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Err = formatString("send: %s", std::strerror(errno));
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  return true;
}

bool Client::readFrame(Frame &Out, std::string &Err) {
  for (;;) {
    switch (Dec.next(Out)) {
    case FrameDecoder::Status::Ready:
      return true;
    case FrameDecoder::Status::Corrupt:
      Err = formatString("protocol error: %s", Dec.error().c_str());
      return false;
    case FrameDecoder::Status::NeedMore:
      break;
    }
    uint8_t Buf[64 * 1024];
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Err = formatString("recv: %s", std::strerror(errno));
      return false;
    }
    if (R == 0) {
      Err = "connection closed by server";
      return false;
    }
    Dec.feed(Buf, static_cast<size_t>(R));
  }
}

bool Client::call(Opcode Op, std::vector<uint8_t> Payload, Frame &Resp,
                  std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  Frame Req;
  Req.Op = static_cast<uint16_t>(Op);
  Req.RequestId = NextId++;
  Req.Payload = std::move(Payload);
  std::vector<uint8_t> Wire = encodeFrame(Req);
  if (!sendAll(Wire.data(), Wire.size(), Err))
    return false;
  // Responses arrive in id order on a sequential connection, but be strict:
  // skip anything that is not our id (a pipelined caller should use the raw
  // frame interface instead).
  for (;;) {
    if (!readFrame(Resp, Err))
      return false;
    if (Resp.RequestId == Req.RequestId) {
      if (Resp.Op != Req.Op) {
        Err = formatString("response opcode %u for request opcode %u",
                           Resp.Op, Req.Op);
        return false;
      }
      return true;
    }
  }
}

namespace {

/// Shared decode of the response envelope; on Ok, \p Body is ready for the
/// opcode body decoder.
bool openResponse(Status &S, std::string &Err, exec::ByteReader &Body) {
  std::string Remote;
  if (!decodeResponseHead(Body, S, Remote)) {
    Err = "truncated response envelope";
    return false;
  }
  if (S != Status::Ok)
    Err = formatString("%s: %s", statusName(S), Remote.c_str());
  return true;
}

} // namespace

bool Client::ping(const std::string &Echo, Status &S, std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Ping, encodePingRequest(Echo), Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  if (S != Status::Ok)
    return true;
  std::string Back;
  if (!decodePingResponseBody(Body, Back) || Back != Echo) {
    Err = "ping echo mismatch";
    return false;
  }
  return true;
}

bool Client::analyze(const AnalyzeRequest &R, AnalyzeResponse &Out,
                     Status &S, std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Analyze, encodeAnalyzeRequest(R), Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  if (S != Status::Ok)
    return true;
  if (!decodeAnalyzeResponseBody(Body, Out)) {
    Err = "malformed ANALYZE response body";
    return false;
  }
  return true;
}

bool Client::run(const RunRequest &R, RunResponse &Out, Status &S,
                 std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Run, encodeRunRequest(R), Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  if (S != Status::Ok)
    return true;
  if (!decodeRunResponseBody(Body, Out)) {
    Err = "malformed RUN response body";
    return false;
  }
  return true;
}

bool Client::classify(const ClassifyRequest &R, ClassifyResponse &Out,
                      Status &S, std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Classify, encodeClassifyRequest(R), Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  if (S != Status::Ok)
    return true;
  if (!decodeClassifyResponseBody(Body, Out)) {
    Err = "malformed CLASSIFY response body";
    return false;
  }
  return true;
}

bool Client::stats(StatsResponse &Out, Status &S, std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Stats, {}, Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  if (S != Status::Ok)
    return true;
  if (!decodeStatsResponseBody(Body, Out)) {
    Err = "malformed STATS response body";
    return false;
  }
  return true;
}

bool Client::drain(Status &S, std::string &Err) {
  Frame Resp;
  if (!call(Opcode::Drain, {}, Resp, Err))
    return false;
  exec::ByteReader Body(Resp.Payload);
  if (!openResponse(S, Err, Body))
    return false;
  return true;
}
