#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "service/socket_util.hpp"

namespace rqsim {

namespace {

/// Retry-with-backoff wrapper around one connect primitive.
template <typename ConnectFn>
int connect_with_retry(const ClientOptions& options, ConnectFn&& try_connect) {
  const int attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  int delay_ms = options.backoff_initial_ms > 0 ? options.backoff_initial_ms : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      return try_connect();
    } catch (const Error&) {
      if (attempt >= attempts) {
        throw;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    delay_ms = std::min(delay_ms * 2, std::max(options.backoff_max_ms, 1));
  }
}

int finish_client_fd(int fd, const ClientOptions& options) {
  if (options.io_timeout_ms > 0) {
    set_io_timeout(fd, options.io_timeout_ms);
  }
  return fd;
}

}  // namespace

SimServer::SimServer(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      handler_(service_),
      listener_(
          config_.unix_path, config_.tcp_port,
          [this](const std::string& line) { return handler_.handle_line(line); },
          [this] { return handler_.shutdown_requested(); }) {}

SimServer::~SimServer() { stop(); }

void SimServer::run() {
  listener_.run();
  stop();
}

void SimServer::stop() {
  listener_.stop();
  service_.shutdown();
}

ServiceClient ServiceClient::connect_unix(const std::string& path,
                                          const ClientOptions& options) {
  const int fd = connect_with_retry(options, [&] {
    return connect_unix_fd(path, options.connect_timeout_ms);
  });
  return ServiceClient(finish_client_fd(fd, options));
}

ServiceClient ServiceClient::connect_tcp(const std::string& host, int port,
                                         const ClientOptions& options) {
  const int fd = connect_with_retry(options, [&] {
    return connect_tcp_fd(host, port, options.connect_timeout_ms);
  });
  return ServiceClient(finish_client_fd(fd, options));
}

ServiceClient ServiceClient::connect(const std::string& endpoint,
                                     const ClientOptions& options) {
  if (endpoint.rfind("unix:", 0) == 0) {
    return connect_unix(endpoint.substr(5), options);
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    return connect(endpoint.substr(4), options);
  }
  if (!endpoint.empty() && endpoint.front() == '/') {
    return connect_unix(endpoint, options);
  }
  const std::size_t colon = endpoint.rfind(':');
  RQSIM_CHECK(colon != std::string::npos,
              "client: endpoint must be a unix path or host:port");
  const std::string host =
      colon == 0 ? std::string("127.0.0.1") : endpoint.substr(0, colon);
  const int port = std::stoi(endpoint.substr(colon + 1));
  return connect_tcp(host, port, options);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(other.fd_), read_buffer_(std::move(other.read_buffer_)) {
  other.fd_ = -1;
}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    read_buffer_ = std::move(other.read_buffer_);
    other.fd_ = -1;
  }
  return *this;
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Json ServiceClient::request(const Json& request_json) {
  RQSIM_CHECK(fd_ >= 0, "client: not connected");
  write_all(fd_, request_json.dump() + "\n");
  std::string line;
  const ReadLineStatus status =
      read_line_bounded(fd_, read_buffer_, line, kMaxResponseLineBytes);
  RQSIM_CHECK(status != ReadLineStatus::kTimeout,
              "client: response timed out");
  RQSIM_CHECK(status == ReadLineStatus::kLine,
              "client: connection closed before a response arrived");
  return Json::parse(line);
}

}  // namespace rqsim
