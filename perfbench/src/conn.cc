#include "conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {
namespace {

namespace serve = groupform::serve;

bool WriteAll(int fd, const std::string& data, std::string* error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Open(int port, bool binary, std::string* error) {
  binary_ = binary;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops answering fails the run instead of hanging it.
  const timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  if (!binary_) return true;
  if (!WriteAll(fd_, std::string(serve::kFrameMagic, serve::kFrameMagicBytes),
                error)) {
    return false;
  }
  std::string hello;
  if (!Receive(&hello, error)) return false;
  const auto parsed = serve::ParseHelloPayload(hello);
  if (!parsed.ok()) {
    *error = "bad hello: " + parsed.status().ToString();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  credits_ = parsed->credits;
  return true;
}

bool Conn::Send(const Item& item, std::string* error) {
  if (!binary_) return WriteAll(fd_, item.line + "\n", error);
  {
    std::unique_lock<std::mutex> lock(mu_);
    credit_cv_.wait(lock, [&] { return credits_ > 0 || closed_; });
    if (closed_) {
      *error = "connection closed";
      return false;
    }
    --credits_;
  }
  return WriteAll(fd_,
                  serve::EncodeFrame(item.batch
                                         ? serve::FrameType::kBatchRequest
                                         : serve::FrameType::kRequest,
                                     0, item.line),
                  error);
}

bool Conn::Receive(std::string* response, std::string* error) {
  char buf[65536];
  for (;;) {
    if (binary_) {
      serve::Frame frame;
      std::size_t consumed = 0;
      const auto result =
          serve::DecodeFrame(inbuf_, serve::kMaxRequestLineBytes, &frame,
                             &consumed, error);
      if (result == serve::FrameDecodeResult::kError) return false;
      if (result == serve::FrameDecodeResult::kFrame) {
        inbuf_.erase(0, consumed);
        {
          std::lock_guard<std::mutex> lock(mu_);
          credits_ += frame.credits;
        }
        credit_cv_.notify_all();
        *response = std::move(frame.payload);
        return true;
      }
    } else {
      const std::size_t newline = inbuf_.find('\n');
      if (newline != std::string::npos) {
        response->assign(inbuf_, 0, newline);
        inbuf_.erase(0, newline + 1);
        return true;
      }
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    // Acknowledge at once, as a client waiting on its replies would. The
    // server writes without TCP_NODELAY, so against a delayed-ACK client
    // Nagle holds each pipelined response until the client's next send,
    // and open-loop latency would read as the send period, not the work.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? "connection closed by server"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    inbuf_.append(buf, static_cast<std::size_t>(n));
  }
}

void Conn::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  credit_cv_.notify_all();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace perfbench
