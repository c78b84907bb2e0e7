#ifndef PERFBENCH_CONN_H_
#define PERFBENCH_CONN_H_

// The load generator's client connection, on either serving wire. Unlike
// serve::WireClient it lets one thread send while another receives, which
// the open loop needs; the closed loop uses it send-then-receive.

#include <condition_variable>
#include <mutex>
#include <string>

#include "workloads.h"

namespace perfbench {

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to 127.0.0.1:`port`. On the binary wire sends the GFB1
  /// magic and reads the hello's credit grant.
  bool Open(int port, bool binary, std::string* error);

  /// Sends one item: a newline-terminated line on JSON, a request or
  /// batch frame on binary (blocking while no credit is left).
  bool Send(const Item& item, std::string* error);

  /// Receives the next response document (line or frame payload). On the
  /// binary wire returns its credit grant to the sender.
  bool Receive(std::string* response, std::string* error);

  /// Unblocks a sender waiting for credit and shuts the socket down.
  void Close();

 private:
  int fd_ = -1;
  bool binary_ = false;
  std::string inbuf_;
  std::mutex mu_;
  std::condition_variable credit_cv_;
  int credits_ = 0;   // guarded by mu_
  bool closed_ = false;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_CONN_H_
