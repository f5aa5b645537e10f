// The JSONL transport shared by the simulation server (service/server.hpp)
// and the fleet router (router/router.hpp).
//
// The listener binds a Unix-domain socket or a TCP port on 127.0.0.1 (pass
// port 0 to bind an ephemeral port and read it back with tcp_port()). Each
// accepted connection gets its own thread that reads '\n'-delimited
// requests and writes one response line per request, produced by the line
// handler. Request lines longer than kMaxLineBytes (service/protocol.hpp)
// are discarded and answered with an "oversized_line" error — the
// connection stays usable because the reader re-synchronizes on the next
// newline. After each response the stop predicate says whether that
// request stopped the front end; if so the accept loop ends, open
// connections are drained, and run() returns.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rqsim {

class JsonlListener {
 public:
  /// The response line (without '\n') to one request line. Called
  /// concurrently from connection threads; must not throw.
  using LineHandler = std::function<std::string(const std::string& line)>;

  /// Asked after each response: true once a request asked to stop.
  using StopPredicate = std::function<bool()>;

  /// Binds and listens immediately (throws rqsim::Error on socket errors):
  /// on `unix_path`, or on TCP `tcp_port` when the path is empty.
  JsonlListener(std::string unix_path, int tcp_port, LineHandler handler,
                StopPredicate stop_after);

  /// Stops, then removes the Unix socket file.
  ~JsonlListener();

  JsonlListener(const JsonlListener&) = delete;
  JsonlListener& operator=(const JsonlListener&) = delete;

  /// Accept loop; returns after stop() or a stopping request, with every
  /// connection closed.
  void run();

  /// Stop the accept loop and close open connections (thread-safe).
  void stop();

  /// Actual bound TCP port (valid for TCP listeners, also with port 0).
  int tcp_port() const { return tcp_port_; }

  /// Human-readable endpoint ("unix:/path" or "tcp:127.0.0.1:port").
  std::string endpoint() const;

 private:
  void handle_connection(int fd);

  const std::string unix_path_;
  const LineHandler handler_;
  const StopPredicate stop_after_;
  std::atomic<int> listen_fd_{-1};
  int tcp_port_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex conn_mu_;
  std::vector<int> open_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace rqsim
