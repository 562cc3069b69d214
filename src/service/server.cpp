#include "service/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "service/protocol.hpp"

namespace dragonfly {

namespace {

/// RunObserver streaming a connection's subscribed samples as SAMPLE
/// lines. on_sample fires from simulating threads; the send callback
/// (SweepServer::send_line) serializes against other writers on the
/// same socket. Every point of one request carries the spec's label.
class SampleStreamer final : public RunObserver {
 public:
  using Send = std::function<bool(const std::string&)>;

  SampleStreamer(std::string label, Send send)
      : label_(std::move(label)), send_(std::move(send)) {}

  void on_sample(std::size_t config_index, std::size_t seed_index,
                 const StreamSample& sample) override {
    send_(protocol::format_sample(label_, config_index, seed_index, sample));
  }

 private:
  std::string label_;
  Send send_;
};

/// Append one protocol line and its newline to a reply buffer.
void add_line(std::string& reply, const std::string& line) {
  reply += line;
  reply += '\n';
}

/// A whole HASH reply: one HASH line per point and DONE, or one ERR.
std::string hash_reply(const RequestReport& rep) {
  std::string out;
  if (!rep.error.empty()) {
    add_line(out, protocol::format_error(rep.error));
    return out;
  }
  for (const PointReport& p : rep.points) {
    add_line(out, protocol::format_hash(p));
  }
  add_line(out, protocol::format_done(rep));
  return out;
}

/// A whole RUN/STREAM reply: one RESULT line per point and DONE. A
/// request error is one ERR; a failed point ends the reply with ERR.
std::string run_reply(const RequestReport& rep) {
  std::string out;
  if (!rep.error.empty()) {
    add_line(out, protocol::format_error(rep.error));
    return out;
  }
  for (const PointReport& p : rep.points) {
    if (!p.error.empty()) {
      add_line(out, protocol::format_error("point " + p.label + " @" +
                                           std::to_string(p.offered_load) +
                                           ": " + p.error));
      return out;
    }
    add_line(out, protocol::format_result(p));
  }
  add_line(out, protocol::format_done(rep));
  return out;
}

}  // namespace

SweepServer::SweepServer(SweepService& service, std::uint16_t port)
    : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

SweepServer::~SweepServer() { stop(); }

void SweepServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed or unrecoverable
    }
    // One write per reply is not enough on its own: Nagle's algorithm
    // holds a write's last partial segment while earlier bytes are
    // unacknowledged (a SAMPLE just streamed, a reply longer than one
    // segment), and the client's delayed ACK then costs 40 ms.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        continue;
      }
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { handle_connection(raw); });
  }
}

void SweepServer::handle_connection(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load()) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      handle_line(conn, line);
      if (stopping_.load()) break;
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestLine) {
      send_line(conn, protocol::format_error(
                          "request line exceeds " +
                          std::to_string(kMaxRequestLine) + " bytes"));
      break;
    }
    // A QUIT closes our side; recv() then returns 0 and the loop ends.
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

void SweepServer::handle_line(Connection* conn, const std::string& line) {
  if (line.empty() || line == "\r") return;
  const protocol::Request req = protocol::parse_request(line);
  switch (req.verb) {
    case protocol::Verb::kInvalid:
      send_line(conn, protocol::format_error(req.error));
      return;
    case protocol::Verb::kPing:
      send_line(conn, "PONG");
      return;
    case protocol::Verb::kQuit:
      send_line(conn, "BYE");
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    case protocol::Verb::kShutdown: {
      send_line(conn, "BYE");
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      shutdown_cv_.notify_all();
      return;
    }
    case protocol::Verb::kStats:
      send_line(conn, protocol::format_stats(service_.stats()));
      return;
    case protocol::Verb::kHash:
      send_all(conn, hash_reply(service_.describe(req.items)));
      return;
    case protocol::Verb::kRun:
    case protocol::Verb::kStream: {
      ExperimentSpec spec;
      try {
        spec = SweepService::parse(req.items);
      } catch (const std::exception& e) {
        send_all(conn, run_reply(service_.reject(e.what())));
        return;
      }
      std::unique_ptr<SampleStreamer> streamer;
      if (req.verb == protocol::Verb::kStream) {
        streamer = std::make_unique<SampleStreamer>(
            spec.label,
            [this, conn](const std::string& s) { return send_line(conn, s); });
      }
      send_all(conn, run_reply(service_.execute_parsed(spec, streamer.get())));
      return;
    }
  }
}

bool SweepServer::send_line(Connection* conn, const std::string& line) {
  std::string out = line;
  out += '\n';
  return send_all(conn, out);
}

bool SweepServer::send_all(Connection* conn, const std::string& bytes) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void SweepServer::wait_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_ || stopping_.load(); });
}

void SweepServer::stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the first stop() may still be joining; just make
    // sure the accept thread is gone before returning.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    shutdown_cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

}  // namespace dragonfly
