#include "service/listener.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/error.hpp"
#include "service/protocol.hpp"
#include "service/socket_util.hpp"

namespace rqsim {

JsonlListener::JsonlListener(std::string unix_path, int tcp_port, LineHandler handler,
                             StopPredicate stop_after)
    : unix_path_(std::move(unix_path)),
      handler_(std::move(handler)),
      stop_after_(std::move(stop_after)) {
  int listen_fd = -1;
  if (!unix_path_.empty()) {
    listen_fd = listen_unix(unix_path_);
  } else {
    listen_fd = listen_tcp(tcp_port, tcp_port_);
  }
  listen_fd_.store(listen_fd);
}

JsonlListener::~JsonlListener() {
  stop();
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
  }
}

std::string JsonlListener::endpoint() const {
  if (!unix_path_.empty()) {
    return "unix:" + unix_path_;
  }
  return "tcp:127.0.0.1:" + std::to_string(tcp_port_);
}

void JsonlListener::run() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listen socket closed by stop()
    }
    reap_finished();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    open_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
  stop();
}

void JsonlListener::handle_connection(int fd) {
  std::string buffer;
  std::string line;
  while (!stopping_.load()) {
    const ReadLineStatus status = read_line_bounded(fd, buffer, line, kMaxLineBytes);
    if (status == ReadLineStatus::kEof || status == ReadLineStatus::kError ||
        status == ReadLineStatus::kTimeout) {
      break;
    }
    std::string response;
    if (status == ReadLineStatus::kOversized) {
      response = oversized_line_error().dump();
    } else {
      if (line.empty()) {
        continue;
      }
      response = handler_(line);
    }
    response.push_back('\n');
    try {
      write_all(fd, response);
    } catch (const Error&) {
      break;  // peer went away mid-response
    }
    if (stop_after_()) {
      stopping_.store(true);
      // Unblock the accept loop so run() can return.
      const int listen_fd = listen_fd_.load();
      if (listen_fd >= 0) {
        ::shutdown(listen_fd, SHUT_RDWR);
      }
      break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = open_fds_.begin(); it != open_fds_.end(); ++it) {
    if (*it == fd) {
      open_fds_.erase(it);
      break;
    }
  }
  finished_.push_back(std::this_thread::get_id());
}

void JsonlListener::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const std::thread::id id : finished_) {
      const auto it = std::find_if(conn_threads_.begin(), conn_threads_.end(),
                                   [id](const std::thread& t) { return t.get_id() == id; });
      if (it != conn_threads_.end()) {  // else stop() has taken it
        done.push_back(std::move(*it));
        conn_threads_.erase(it);
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done) {
    t.join();
  }
}

void JsonlListener::stop() {
  stopping_.store(true);
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : open_fds_) {
      ::shutdown(fd, SHUT_RDWR);  // wake blocked reads; threads close the fds
    }
    threads.swap(conn_threads_);
    finished_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable() && t.get_id() != std::this_thread::get_id()) {
      t.join();
    } else if (t.joinable()) {
      t.detach();  // a connection thread triggered the shutdown itself
    }
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
}

}  // namespace rqsim
