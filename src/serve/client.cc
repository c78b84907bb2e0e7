#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "serve/server.h"

namespace groupform::serve {
namespace {

using common::Status;

Status Errno(const char* what) {
  return Status::Internal(
      common::StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Batch responses come back re-rendered per element. Canonical render
/// is parse's inverse, so this loses nothing against the single-request
/// documents (the wire-equivalence tests pin exactly that).
common::StatusOr<std::vector<std::string>> UnpackBatchResponse(
    const std::string& line, std::size_t expected) {
  GF_ASSIGN_OR_RETURN(const BatchResponse batch,
                      ParseBatchResponseLine(line));
  if (batch.responses.size() != expected) {
    return Status::DataLoss(common::StrFormat(
        "batch of %zu requests answered with %zu responses", expected,
        batch.responses.size()));
  }
  std::vector<std::string> out;
  out.reserve(batch.responses.size());
  for (const Response& response : batch.responses) {
    out.push_back(RenderResponse(response));
  }
  return out;
}

}  // namespace

common::StatusOr<WireClient> WireClient::Connect(const std::string& host,
                                                 int port, Wire wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    // A connect interrupted by a signal keeps progressing in the kernel;
    // the retried call reports EISCONN once the handshake lands.
  } while (rc < 0 && (errno == EINTR || errno == EALREADY));
  if (rc < 0 && errno == EISCONN) rc = 0;
  if (rc < 0) {
    const std::string message = common::StrFormat(
        "connect(%s:%d): %s", host.c_str(), port, std::strerror(errno));
    // A refused connection means "no process is listening there" — the
    // dead-worker signal the broker's retry policy keys on — so it gets
    // UNAVAILABLE rather than the generic INTERNAL of other socket errors.
    const Status status = errno == ECONNREFUSED
                              ? Status::Unavailable(message)
                              : Status::Internal(message);
    ::close(fd);
    return status;
  }
  SetTcpNoDelay(fd);
  WireClient client(fd, wire);
  if (wire == Wire::kBinary) {
    GF_RETURN_IF_ERROR(client.SendBytes(
        std::string(kFrameMagic, kFrameMagicBytes)));
    GF_ASSIGN_OR_RETURN(const Frame frame, client.ReadFrame());
    if (frame.type != FrameType::kHello) {
      return Status::Internal(common::StrFormat(
          "expected a hello frame, got type %u",
          static_cast<unsigned>(frame.type)));
    }
    GF_ASSIGN_OR_RETURN(client.hello_, ParseHelloPayload(frame.payload));
    client.credits_ = client.hello_.credits;
  }
  return client;
}

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      wire_(other.wire_),
      hello_(other.hello_),
      credits_(other.credits_),
      inbuf_(std::move(other.inbuf_)) {}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    wire_ = other.wire_;
    hello_ = other.hello_;
    credits_ = other.credits_;
    inbuf_ = std::move(other.inbuf_);
  }
  return *this;
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

common::Status WireClient::SendBytes(const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

common::StatusOr<std::string> WireClient::ReadLine() {
  for (;;) {
    const std::size_t newline = inbuf_.find('\n');
    if (newline != std::string::npos) {
      std::string line = inbuf_.substr(0, newline);
      inbuf_.erase(0, newline + 1);
      return line;
    }
    char buffer[1 << 16];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("recv");
    if (n == 0) {
      return Status::DataLoss("connection closed mid-response");
    }
    inbuf_.append(buffer, static_cast<std::size_t>(n));
  }
}

common::StatusOr<Frame> WireClient::ReadFrame() {
  for (;;) {
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    const FrameDecodeResult result = DecodeFrame(
        inbuf_, static_cast<std::size_t>(kMaxRequestLineBytes), &frame,
        &consumed, &error);
    if (result == FrameDecodeResult::kError) {
      return Status::DataLoss("bad frame from server: " + error);
    }
    if (result == FrameDecodeResult::kFrame) {
      inbuf_.erase(0, consumed);
      if (credits_ >= 0) credits_ += frame.credits;
      return frame;
    }
    char buffer[1 << 16];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("recv");
    if (n == 0) return Status::DataLoss("connection closed mid-frame");
    inbuf_.append(buffer, static_cast<std::size_t>(n));
  }
}

common::StatusOr<std::string> WireClient::ReadResponsePayload(
    bool expect_batch) {
  GF_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  const FrameType expected =
      expect_batch ? FrameType::kBatchResponse : FrameType::kResponse;
  if (frame.type != expected) {
    return Status::DataLoss(common::StrFormat(
        "expected frame type %u, got %u",
        static_cast<unsigned>(expected),
        static_cast<unsigned>(frame.type)));
  }
  return std::move(frame.payload);
}

common::StatusOr<std::string> WireClient::Call(
    const std::string& request_line) {
  if (wire_ == Wire::kJson) {
    GF_RETURN_IF_ERROR(SendBytes(request_line + "\n"));
    return ReadLine();
  }
  GF_RETURN_IF_ERROR(
      SendBytes(EncodeFrame(FrameType::kRequest, 0, request_line)));
  if (credits_ > 0) --credits_;
  return ReadResponsePayload(/*expect_batch=*/false);
}

common::StatusOr<std::vector<std::string>> WireClient::CallBatch(
    const std::vector<std::string>& request_lines,
    const std::string& batch_id) {
  if (request_lines.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  // The element documents are spliced verbatim, not reparsed: the
  // client-side half of the batch amortisation.
  const std::string envelope =
      RenderBatchRequestFromDocs(batch_id, request_lines);
  if (wire_ == Wire::kJson) {
    GF_RETURN_IF_ERROR(SendBytes(envelope + "\n"));
    GF_ASSIGN_OR_RETURN(const std::string line, ReadLine());
    return UnpackBatchResponse(line, request_lines.size());
  }
  GF_RETURN_IF_ERROR(
      SendBytes(EncodeFrame(FrameType::kBatchRequest, 0, envelope)));
  if (credits_ > 0) --credits_;
  GF_ASSIGN_OR_RETURN(const std::string payload,
                      ReadResponsePayload(/*expect_batch=*/true));
  return UnpackBatchResponse(payload, request_lines.size());
}

common::StatusOr<std::vector<std::string>> WireClient::CallPipelined(
    const std::vector<std::string>& request_lines) {
  std::vector<std::string> responses;
  responses.reserve(request_lines.size());
  if (wire_ == Wire::kJson) {
    // The JSON wire has no client-visible credits; the server's
    // max_inflight window shows up as TCP backpressure on the send.
    std::string payload;
    for (const std::string& line : request_lines) {
      payload += line;
      payload += '\n';
    }
    GF_RETURN_IF_ERROR(SendBytes(payload));
    for (std::size_t i = 0; i < request_lines.size(); ++i) {
      GF_ASSIGN_OR_RETURN(std::string line, ReadLine());
      responses.push_back(std::move(line));
    }
    return responses;
  }
  // Credit loop: run ahead of the responses exactly as far as the
  // balance allows, then block for a response (which carries a grant)
  // before sending more — the client half of the backpressure contract.
  std::size_t next = 0;
  while (responses.size() < request_lines.size()) {
    while (next < request_lines.size() && credits_ > 0) {
      GF_RETURN_IF_ERROR(SendBytes(
          EncodeFrame(FrameType::kRequest, 0, request_lines[next])));
      ++next;
      --credits_;
    }
    GF_ASSIGN_OR_RETURN(std::string payload,
                        ReadResponsePayload(/*expect_batch=*/false));
    responses.push_back(std::move(payload));
  }
  return responses;
}

}  // namespace groupform::serve
