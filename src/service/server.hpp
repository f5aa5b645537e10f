// Socket transport for the JSONL protocol: a listening server wrapping a
// SimService, and a line-oriented client used by the CLI verbs, the fleet
// router (router/router.hpp) and tests.
//
// The server answers each request line of its JsonlListener
// (service/listener.hpp) through a ProtocolHandler; a {"op":"shutdown"}
// request stops the accept loop, drains open connections, shuts the
// service's workers down, and returns from run().
#pragma once

#include <cstdint>
#include <string>

#include "service/listener.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace rqsim {

struct ServerConfig {
  /// Filesystem path of the Unix socket; empty = use TCP instead.
  std::string unix_path;

  /// TCP port on 127.0.0.1 (0 = ephemeral); ignored when unix_path is set.
  int tcp_port = 0;

  ServiceConfig service;
};

class SimServer {
 public:
  /// Binds and listens immediately (throws rqsim::Error on socket errors).
  explicit SimServer(ServerConfig config);
  ~SimServer();

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Accept loop; returns after stop() or a shutdown request.
  void run();

  /// Stop the accept loop, close open connections and shut the service
  /// down (thread-safe).
  void stop();

  /// Actual bound TCP port (valid for TCP servers, also with tcp_port 0).
  int tcp_port() const { return listener_.tcp_port(); }

  /// Human-readable endpoint ("unix:/path" or "tcp:127.0.0.1:port").
  std::string endpoint() const { return listener_.endpoint(); }

  SimService& service() { return service_; }

 private:
  ServerConfig config_;
  SimService service_;
  ProtocolHandler handler_;
  JsonlListener listener_;  // last: its threads use the members above
};

/// Connection/request robustness policy of a ServiceClient. Transient
/// connect failures (refused / reset / timed out — a backend restarting or
/// briefly overloaded) are retried with bounded exponential backoff; a slow
/// or wedged peer is bounded by the I/O timeout instead of hanging the
/// caller forever. The fleet router reuses this policy for backend calls.
struct ClientOptions {
  /// Bound on each connect() attempt; 0 = block indefinitely.
  int connect_timeout_ms = 5000;

  /// Bound on each request/response round trip once connected; 0 = none.
  /// Leave 0 when issuing blocking `wait` requests — a long simulation is
  /// not a dead peer.
  int io_timeout_ms = 0;

  /// Total connect attempts (>= 1).
  int max_attempts = 3;

  /// Exponential backoff between connect attempts: initial delay doubles
  /// per retry up to the cap.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 500;
};

/// Blocking request/response client over one connection.
class ServiceClient {
 public:
  static ServiceClient connect_unix(const std::string& path,
                                    const ClientOptions& options = {});
  static ServiceClient connect_tcp(const std::string& host, int port,
                                   const ClientOptions& options = {});

  /// Parse an endpoint of the form "unix:/path", "/path" (unix), or
  /// "host:port" / ":port" (tcp) and connect.
  static ServiceClient connect(const std::string& endpoint,
                               const ClientOptions& options = {});

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient();

  /// Send one request line, block for the response line. Throws
  /// rqsim::Error on transport failure (peer closed, reset, I/O timeout).
  Json request(const Json& request_json);

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string read_buffer_;
};

}  // namespace rqsim
