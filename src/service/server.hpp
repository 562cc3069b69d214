// TCP front end of the sweep service: a loopback daemon speaking the
// line protocol of protocol.hpp. One accept thread plus one handler
// thread per connection; handlers block in SweepService::execute while
// the shared ThreadPool simulates, so many clients queue work into one
// process-wide cache/pool. `simulate_cli --serve PORT` wraps this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.hpp"

namespace dragonfly {

class SweepServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  /// accepting. Throws std::runtime_error when the socket can't be
  /// set up. The service must outlive the server.
  SweepServer(SweepService& service, std::uint16_t port);
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Longest request line a connection may hold without a newline; a
  /// longer one is answered with ERR and the connection is closed.
  static constexpr std::size_t kMaxRequestLine = 1 << 20;

  /// The bound port (the resolved one when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Block until a client sends SHUTDOWN or stop() is called.
  void wait_shutdown();

  /// Stop accepting, close every connection, join all threads.
  /// Idempotent; also runs from the destructor.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::mutex write_mu;  ///< serializes replies vs. streamed samples
  };

  void accept_loop();
  void handle_connection(Connection* conn);
  void handle_line(Connection* conn, const std::string& line);
  /// One protocol line (a streamed SAMPLE or a one-line reply).
  bool send_line(Connection* conn, const std::string& line);
  /// Write `bytes` whole under the connection's write lock, so a reply
  /// built in one buffer never interleaves with SAMPLE lines.
  bool send_all(Connection* conn, const std::string& bytes);

  SweepService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace dragonfly
