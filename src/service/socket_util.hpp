// Shared low-level socket plumbing for the JSONL transports.
//
// The simulation server (service/server.hpp) and the fleet router
// (router/router.hpp) both speak '\n'-delimited JSON over Unix-domain or
// loopback TCP stream sockets. This header is the one home for the raw
// syscall layer they share: listen/accept setup, connect with an optional
// timeout, full-buffer sends, and a bounded line reader that turns a
// too-long line into a recoverable protocol error instead of unbounded
// buffering. Analyzer rule RQS006 (tools/analyze) confines raw socket
// syscalls to src/service/ and src/router/, so every other layer
// goes through ServiceClient or these helpers.
#pragma once

#include <cstddef>
#include <string>

namespace rqsim {

/// Outcome of one bounded line read (see read_line_bounded).
enum class ReadLineStatus {
  kLine,       // `line` holds one complete frame (newline stripped)
  kEof,        // orderly close with nothing buffered
  kOversized,  // a frame exceeded max_line; it was discarded, stream resynced
  kTimeout,    // fd has SO_RCVTIMEO set and it expired mid-frame
  kError,      // connection reset / closed under us
};

/// Send the whole buffer (MSG_NOSIGNAL); throws rqsim::Error on failure.
void write_all(int fd, const std::string& data);

/// Read one '\n'-terminated line into `line` (newline and a trailing '\r'
/// stripped), carrying partial data across calls in `buffer`. A final
/// unterminated line at EOF is returned as a line. Frames longer than
/// `max_line` bytes are discarded up to their terminating newline — the
/// stream stays framed, so the caller can answer with a structured error
/// and keep serving the connection.
ReadLineStatus read_line_bounded(int fd, std::string& buffer, std::string& line,
                                 std::size_t max_line);

/// Connect to a Unix-domain / loopback-TCP stream socket. A positive
/// `timeout_ms` bounds the connect() itself (non-blocking connect + poll);
/// 0 blocks indefinitely. Throws rqsim::Error on failure.
int connect_unix_fd(const std::string& path, int timeout_ms = 0);
int connect_tcp_fd(const std::string& host, int port, int timeout_ms = 0);

/// Arm SO_RCVTIMEO/SO_SNDTIMEO on a connected socket (0 disarms). Reads
/// past the deadline surface as ReadLineStatus::kTimeout.
void set_io_timeout(int fd, int timeout_ms);

/// Bind + listen. For TCP the socket binds 127.0.0.1:`port` (0 picks an
/// ephemeral port) and `bound_port` reports the actual port. For Unix the
/// path is unlinked first (stale socket from a crashed server). Throws
/// rqsim::Error on failure.
int listen_unix(const std::string& path);
int listen_tcp(int port, int& bound_port);

}  // namespace rqsim
