// The TCP transport: an RPC-style client that sends one request and
// waits must receive its response while the connection stays open (the
// writer thread streams retired responses; nothing waits for EOF), an
// ephemeral port binds and reports itself, and Shutdown() unblocks
// Serve() with connections drained.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void SendLine(int fd, const std::string& line) {
  const std::string payload = line + "\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
}

/// Blocking read of exactly one '\n'-terminated line.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  ADD_FAILURE() << "connection closed before a full line arrived";
  return line;
}

std::string SmallRequest(const std::string& id) {
  Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 8;
  request.instance.items = 5;
  request.instance.clusters = 2;
  request.instance.seed = 4;
  request.problem.k = 2;
  request.problem.groups = 3;
  return RenderRequest(request);
}

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

TEST_F(TcpServerTest, RpcStyleClientGetsEachResponseWhileConnected) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.max_inflight = 4;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  // One request at a time, waiting for each answer with the write side
  // still open — this hangs forever if responses are only flushed at
  // window-full or EOF.
  for (int i = 0; i < 3; ++i) {
    const std::string id = common::StrFormat("rpc-%d", i);
    SendLine(fd, SmallRequest(id));
    const auto response = ParseResponseLine(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, id);
    EXPECT_EQ(response->state, eval::SweepCellState::kOk)
        << response->status;
  }
  ::close(fd);

  server.Shutdown();
  serving.join();
  EXPECT_EQ(session.cache().stats().misses, 1);
  EXPECT_EQ(session.cache().stats().hits, 2);
}

TEST_F(TcpServerTest, SendRequestLinesRoundTripsABatch) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });

  const auto responses = SendRequestLines(
      "127.0.0.1", server.port(),
      {SmallRequest("b0"), SmallRequest("b1"), SmallRequest("b2")});
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto response =
        ParseResponseLine((*responses)[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status();
    // Responses arrive in request order.
    EXPECT_EQ(response->id, common::StrFormat("b%d", i));
  }

  server.Shutdown();
  serving.join();
}

/// The port of a socket's local (or, with `peer`, remote) IPv4 address;
/// -1 when the fd is not a connected IPv4 stream socket.
int SocketPort(int fd, bool peer) {
  int type = 0;
  socklen_t len = sizeof(type);
  if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) != 0 ||
      type != SOCK_STREAM) {
    return -1;
  }
  sockaddr_in addr{};
  socklen_t addr_len = sizeof(addr);
  auto* raw = reinterpret_cast<sockaddr*>(&addr);
  if ((peer ? ::getpeername(fd, raw, &addr_len)
            : ::getsockname(fd, raw, &addr_len)) != 0 ||
      addr.sin_family != AF_INET) {
    return -1;
  }
  return ntohs(addr.sin_port);
}

TEST_F(TcpServerTest, AcceptedAndConnectedSocketsSetNoDelay) {
  // Both ends of a WireClient connection live in this process: the
  // client's connect and the server's accept must each set TCP_NODELAY,
  // or Nagle holds pipelined lines behind a delayed ACK.
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });
  {
    auto client = WireClient::Connect("127.0.0.1", server.port(),
                                      WireClient::Wire::kJson);
    ASSERT_TRUE(client.ok()) << client.status();
    // A round trip: the server has accepted and is serving the stream.
    const auto response = client->Call(SmallRequest("nodelay"));
    ASSERT_TRUE(response.ok()) << response.status();

    int accepted = 0;
    int connected = 0;
    DIR* dir = ::opendir("/proc/self/fd");
    ASSERT_NE(dir, nullptr);
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const int fd = std::atoi(entry->d_name);
      const bool server_side = SocketPort(fd, /*peer=*/false) ==
                                   server.port() &&
                               SocketPort(fd, /*peer=*/true) > 0;
      const bool client_side = SocketPort(fd, /*peer=*/true) == server.port();
      if (!server_side && !client_side) continue;
      int nodelay = 0;
      socklen_t len = sizeof(nodelay);
      ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
                0);
      EXPECT_NE(nodelay, 0) << (server_side ? "accepted" : "connected")
                            << " socket fd " << fd;
      accepted += server_side ? 1 : 0;
      connected += client_side ? 1 : 0;
    }
    ::closedir(dir);
    EXPECT_EQ(accepted, 1);
    EXPECT_EQ(connected, 1);
  }
  server.Shutdown();
  serving.join();
}

TEST_F(TcpServerTest, ShutdownUnblocksServeWithNoConnections) {
  common::ThreadPool::SetDefaultThreadCount(1);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });
  // Give Serve a moment to block in accept, then stop it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  serving.join();
}

}  // namespace
}  // namespace groupform::serve
