// Newline-delimited JSON wire protocol of the simulation service.
//
// Framing: one JSON object per '\n'-terminated line, request → response,
// strictly in order per connection. Every response carries "ok"; failures
// add a machine-readable "error" code plus a human "detail":
//
//   request                                        response
//   {"op":"ping"}                                  {"ok":true,"pong":true}
//   {"op":"submit","workload":{...},"trials":..}   {"ok":true,"job":7,"state":"queued"}
//   {"op":"status","job":7}                        {"ok":true,"job":7,"state":"done","result":{...}}
//   {"op":"wait","job":7}                          (status, but blocks until terminal)
//   {"op":"cancel","job":7}                        {"ok":true,"cancelled":true}
//   {"op":"stats"}                                 {"ok":true,"stats":{...}}
//   {"op":"trace","action":"start|stop|collect"}   {"ok":true,"tracing":...}
//   {"op":"shutdown"}                              {"ok":true,"stopping":true}
//
// Observability: ping responses carry "clock_us" (this process's monotonic
// clock) so a caller can measure clock skew; submit responses echo the
// job's "trace_id"; `trace collect` stops tracing and returns the buffered
// Chrome-trace document plus the trace epoch, for `rqsim trace-merge` to
// stitch into one fleet-wide file. `stats` responses add "build"
// (version + uptime) and "slo" (per-tenant latency histograms with
// p50/p90/p99 and slow-job exemplars).
//
// Error codes: "bad_request" (malformed JSON / unknown op / bad field),
// "invalid" (spec failed validation), "queue_full" (backpressure — the
// bounded queue rejected the submit; retry later), "unknown_job",
// "shutdown" (service no longer accepts work), "oversized_line" (a request
// frame exceeded kMaxLineBytes and was discarded; the connection stays
// framed). The fleet router (router/router.hpp) speaks the same protocol
// and adds "quota_exceeded" (tenant admission) and "no_backend" (no
// routable backend); its rejections carry a "retry_after_ms" hint.
//
// Submit requests may carry a "tenant" string: a client identity used for
// fair-share admission at the router and cross-tenant batch-merge
// accounting in the service. Absent or empty means the anonymous tenant.
//
// ProtocolHandler is transport-free: it turns one request Json into one
// response Json against a SimService. The socket server (service/server.hpp)
// and the in-process tests share it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "service/job.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

/// Hard bound on one JSONL frame, shared by SimServer, the fleet router and
/// ServiceClient. Large enough for any submit the service accepts (inline
/// QASM included); a line past this is a protocol violation, answered with
/// an "oversized_line" error while the reader resynchronizes on the next
/// newline (service/socket_util.hpp).
inline constexpr std::size_t kMaxLineBytes = 1 << 20;  // 1 MiB

/// Response-side bound used by ServiceClient. Responses are trusted (we
/// asked this peer) and can legitimately dwarf any request: a `trace
/// collect` reply embeds a whole Chrome-trace document (up to 64k events
/// per recording thread). Bounded anyway so a corrupt peer cannot balloon
/// memory without limit.
inline constexpr std::size_t kMaxResponseLineBytes = 256u << 20;  // 256 MiB

/// Canonical verb lists of the wire protocol. These are the source of truth
/// the rqsim-analyze protocol-exhaustiveness pass checks dispatch against:
/// every verb here must have an `op == "<verb>"` comparison in
/// ProtocolHandler::handle (kServiceVerbs) and in the fleet router's
/// dispatcher (kRouterVerbs, which speaks the same protocol plus the
/// drain/undrain fleet controls).
inline constexpr const char* kServiceVerbs[] = {
    "ping", "submit", "status", "wait", "cancel", "stats", "trace", "shutdown"};
inline constexpr const char* kRouterVerbs[] = {
    "ping",  "submit", "status",   "wait",  "cancel",
    "stats", "trace",  "shutdown", "drain", "undrain"};

/// Per-submit run parameters carried next to the workload description.
struct SubmitParams {
  std::size_t trials = 1024;
  std::uint64_t seed = 1;
  std::string mode = "cached";  // baseline | cached | unordered
  std::size_t max_states = 0;
  std::size_t threads = 1;
  std::string priority = "normal";  // low | normal | high
  bool analyze = false;
  bool fuse = false;
  /// Pauli-frame subtree collapse (NoisyRunConfig::frame_collapse): cached
  /// runs finish Clifford-propagatable trials as tracked frames instead of
  /// forked statevectors. Bitwise-identical results, fewer matvec ops.
  /// Framed jobs merge only with other framed jobs.
  bool frames = false;
  std::string tenant;  // fair-share identity; empty = anonymous

  /// Distributed-trace id in lower-case hex; empty = let the receiving
  /// process mint one. The router mints at admission and forwards the same
  /// id to the backend so both processes' spans share it.
  std::string trace_id;
};

Json workload_to_json(const WorkloadSpec& spec);
WorkloadSpec workload_from_json(const Json& json);

/// Build a complete submit request line (client side).
Json make_submit_request(const WorkloadSpec& workload, const SubmitParams& params);

/// Serialize a terminal job result; histogram keys are bitstrings of
/// result.num_measured bits.
Json job_result_to_json(const JobResult& result);

/// Serialize a metrics snapshot: counters and gauges become numbers,
/// histograms become {count, sum, buckets}. Used by the `stats` protocol
/// response and the `rqsim stats` CLI verb.
Json metrics_snapshot_to_json(const telemetry::MetricsSnapshot& snapshot);

/// Inverse of metrics_snapshot_to_json: rebuild a snapshot from a `stats`
/// response's telemetry block so per-backend snapshots can be merged into
/// one fleet view (telemetry::merge_snapshot). Counters serialize as plain
/// numbers, max-gauges as {"max": v}, histograms as {count, sum, buckets},
/// so every kind folds with its own rule after the round trip.
telemetry::MetricsSnapshot metrics_snapshot_from_json(const Json& json);

/// Serialize per-tenant SLO state: each tenant (plus the "total" aggregate)
/// as {queue_us, exec_us, e2e_us} latency histograms — raw log2 buckets so
/// the router can re-merge across backends, plus p50/p90/p99 snapshots —
/// and a slow-job "exemplars" list carrying job ids and hex trace ids.
Json slo_to_json(const telemetry::SloTracker& slo);

/// Inverse of slo_to_json (quantile fields are recomputed, not parsed);
/// tolerates missing/unknown fields the same way metrics_snapshot_from_json
/// does so fleets can mix protocol versions.
telemetry::SloTracker slo_from_json(const Json& json);

/// {"ok":false,"error":code,"detail":detail}: the shape of every protocol
/// error, from the server and the fleet router alike.
Json error_response(const std::string& code, const std::string& detail);

/// The response for a frame the handler never saw because it exceeded
/// kMaxLineBytes (sent by the shared JsonlListener, service/listener.hpp).
Json oversized_line_error();

class ProtocolHandler {
 public:
  explicit ProtocolHandler(SimService& service) : service_(service) {}

  /// Parse one request line and produce the response line (both without
  /// the trailing '\n'). Never throws — protocol errors become "ok":false
  /// responses.
  std::string handle_line(const std::string& line);

  /// Structured form of handle_line.
  Json handle(const Json& request);

  /// True once a shutdown request was accepted (the transport should stop).
  bool shutdown_requested() const;

 private:
  Json handle_submit(const Json& request);
  Json handle_status(const Json& request, bool wait);
  Json job_status_response(std::uint64_t job_id);

  SimService& service_;
  mutable std::mutex mu_;
  bool shutdown_requested_ = false;
};

}  // namespace rqsim
