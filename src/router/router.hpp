// Fleet router: a standalone process speaking the SimServer JSONL protocol
// on the front and fanning work out to N backend SimServer instances.
//
// Why a router at all: the paper's redundancy elimination compounds when
// *compatible* jobs share a process — the backend merges them into one
// prefix tree (run_noisy_batch, sched/runner.hpp). With several
// independent backends, that reuse only happens if compatible jobs from
// different tenants land on the *same* backend. The router arranges exactly
// that with a consistent-hash ring over a canonical workload-affinity key
// (router/ring.hpp), then layers on what a shared fleet needs:
//
//   * tenant fair-share admission in front of the backends' kQueueFull
//     backpressure (router/admission.hpp), rejections carrying a
//     "retry_after_ms" hint;
//   * backend health checks with automatic ejection / re-admission and
//     operator-driven graceful drain (router/health.hpp);
//   * transparent failover: jobs routed to a backend that dies are
//     resubmitted (same spec, same seed — results are bitwise identical)
//     to the next backend in the key's ring preference;
//   * a fan-out `stats` verb that merges every backend's service counters
//     and telemetry snapshot into a single fleet view, headlined by the
//     cross-tenant batch-merge hit rate.
//
// Protocol deltas vs a single SimServer (documented in
// service/protocol.hpp): job ids in responses are *router* job ids;
// "quota_exceeded" / "no_backend" errors with "retry_after_ms"; extra ops
// {"op":"drain","backend":...} / {"op":"undrain","backend":...}; the stats
// response gains a "fleet" block. A router "shutdown" stops the router
// only — backends have their own lifecycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "router/admission.hpp"
#include "router/health.hpp"
#include "service/listener.hpp"
#include "service/server.hpp"

namespace rqsim {

struct RouterConfig {
  /// Front listener: Unix socket path, or TCP port when empty (0 =
  /// ephemeral; read back with tcp_port()).
  std::string unix_path;
  int tcp_port = 0;

  /// Backend endpoints ("unix:/path" or "host:port"), the fleet membership.
  std::vector<std::string> backends;

  HealthConfig health;
  AdmissionConfig admission;

  /// Connect/retry/timeout policy for calls to backends. io_timeout_ms
  /// must stay 0 (the default) while blocking `wait` is in use.
  ClientOptions backend_client;

  /// Ring points per backend (router/ring.hpp).
  std::size_t ring_vnodes = 64;

  /// Start the periodic health-check thread in run(). Tests that step
  /// probes deterministically via pool().probe_once() turn this off.
  bool health_thread = true;
};

class FleetRouter {
 public:
  /// Binds the front listener immediately (throws rqsim::Error).
  explicit FleetRouter(RouterConfig config);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Accept loop; returns after stop() or a shutdown request.
  void run();
  void stop();

  int tcp_port() const { return listener_.tcp_port(); }
  std::string endpoint() const { return listener_.endpoint(); }

  /// Transport-free request handling (the accept loop and in-process tests
  /// share it). Thread-safe.
  Json handle(const Json& request);

  BackendPool& pool() { return pool_; }
  AdmissionController& admission() { return admission_; }

 private:
  /// One routed job. The original submit request is kept verbatim so a
  /// backend failure can be healed by resubmitting the identical spec
  /// (deterministic seed => bitwise-identical result) elsewhere.
  struct RoutedJob {
    std::string backend;
    std::uint64_t backend_job = 0;
    std::uint64_t generation = 0;  // bumped on every failover resubmit
    std::uint64_t key = 0;         // workload-affinity key
    std::string tenant;
    Json submit_request;
    bool finished = false;         // admission released, inflight returned
    bool has_terminal = false;     // terminal_response cached
    Json terminal_response;
  };

  Json handle_submit(const Json& request);
  Json handle_job_op(const Json& request, const std::string& op);
  Json handle_stats();
  Json handle_drain(const Json& request, bool draining);
  /// Fan out trace start/stop to every backend; `collect` additionally
  /// pulls each backend's Chrome-trace buffer, measures its clock offset
  /// with a bracketed ping, and returns a "processes" array whose epochs
  /// are corrected into the router's clock domain (trace-merge input).
  Json handle_trace(const Json& request);

  /// Re-home a job whose backend failed at `failed_generation`. Returns
  /// true when the job is routed again (or was concurrently healed).
  bool failover(std::uint64_t router_job, std::uint64_t failed_generation);

  /// Mark a job finished exactly once: cache the terminal response (when
  /// given), release admission, return the backend in-flight slot.
  void finish_job(std::uint64_t router_job, const Json* terminal_response);

  RouterConfig config_;
  BackendPool pool_;
  AdmissionController admission_;

  std::mutex jobs_mu_;
  std::map<std::uint64_t, RoutedJob> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::mutex failover_mu_;  // serializes resubmissions (one at a time)

  std::atomic<std::uint64_t> routed_total_{0};
  std::atomic<std::uint64_t> resubmits_total_{0};
  std::atomic<std::uint64_t> rejected_quota_total_{0};
  std::atomic<std::uint64_t> rejected_no_backend_total_{0};

  /// Set by stop() and by a "shutdown" request.
  std::atomic<bool> stopping_{false};
  JsonlListener listener_;  // last: its threads use the members above
};

}  // namespace rqsim
