#include "router/router.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/version.hpp"
#include "router/ring.hpp"
#include "service/protocol.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace rqsim {

namespace {

bool is_terminal_state(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

/// Service-counter fields of a backend stats body that sum across the fleet
/// (everything in the body — they are all monotonic counters or additive
/// point-in-time gauges).
constexpr const char* kSummedStatsFields[] = {
    "submitted",       "rejected",
    "completed",       "failed",
    "cancelled",       "merged_batches",
    "merged_jobs",     "merged_batch_ops",
    "merged_solo_ops", "merged_cross_tenant_batches",
    "merged_cross_tenant_jobs",
    "queued_now",      "running_now",
};

}  // namespace

FleetRouter::FleetRouter(RouterConfig config)
    : config_(std::move(config)),
      pool_(config_.backends, config_.health, config_.ring_vnodes),
      admission_(config_.admission),
      listener_(
          config_.unix_path, config_.tcp_port,
          [this](const std::string& line) {
            try {
              return handle(Json::parse(line)).dump();
            } catch (const Error& e) {
              return error_response("bad_request", e.what()).dump();
            }
          },
          [this] { return stopping_.load(); }) {
  if (config_.health_thread) {
    pool_.start_health_checks();
  }
}

FleetRouter::~FleetRouter() { stop(); }

void FleetRouter::run() {
  listener_.run();
  stop();
}

void FleetRouter::stop() {
  stopping_.store(true);
  pool_.stop_health_checks();
  listener_.stop();
}

Json FleetRouter::handle(const Json& request) {
  try {
    if (!request.is_object()) {
      return error_response("bad_request", "request must be a JSON object");
    }
    const std::string op = request.get_string("op", "");
    if (op == "ping") {
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("pong", Json(true));
      response.set("router", Json(true));
      response.set("clock_us", Json(telemetry::now_ns() / 1000));
      return response;
    }
    if (op == "submit") {
      return handle_submit(request);
    }
    if (op == "status" || op == "wait" || op == "cancel") {
      return handle_job_op(request, op);
    }
    if (op == "stats") {
      return handle_stats();
    }
    if (op == "trace") {
      return handle_trace(request);
    }
    if (op == "drain") {
      return handle_drain(request, /*draining=*/true);
    }
    if (op == "undrain") {
      return handle_drain(request, /*draining=*/false);
    }
    if (op == "shutdown") {
      // Stops the router only; backends have their own lifecycles and keep
      // serving directly-connected clients.
      stopping_.store(true);
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("stopping", Json(true));
      return response;
    }
    return error_response("bad_request", "unknown op '" + op + "'");
  } catch (const Error& e) {
    return error_response("bad_request", e.what());
  }
}

Json FleetRouter::handle_submit(const Json& request) {
  // Admission is where a job's fleet journey begins, so the trace id is
  // minted here (unless the client brought one) and every hop after this —
  // the forwarded submit, the backend's queue wait, batch planning, tree
  // execution — carries the same id.
  std::uint64_t trace_id =
      telemetry::trace_id_from_hex(request.get_string("trace_id", ""));
  if (trace_id == 0) {
    trace_id = telemetry::mint_trace_id();
  }
  telemetry::TraceContext trace_ctx(trace_id);
  RQSIM_SPAN("router.admit");
  Json traced_request = request;
  traced_request.set("trace_id", Json(telemetry::trace_id_to_hex(trace_id)));

  const std::string tenant = request.get_string("tenant", "");
  const AdmissionDecision decision = admission_.try_admit(tenant);
  if (!decision.admitted) {
    ++rejected_quota_total_;
    Json response = error_response("quota_exceeded", decision.reason);
    response.set("retry_after_ms", Json(decision.retry_after_ms));
    return response;
  }

  const std::uint64_t key = workload_affinity_key(request);
  const std::vector<std::string> preference = pool_.route_preference(key);
  if (preference.empty()) {
    admission_.release(tenant);
    ++rejected_no_backend_total_;
    Json response =
        error_response("no_backend", "no healthy, non-draining backend available");
    response.set("retry_after_ms",
                 Json(static_cast<double>(config_.health.interval_ms)));
    return response;
  }

  for (const std::string& backend : preference) {
    Json response;
    try {
      ServiceClient client =
          ServiceClient::connect(backend, config_.backend_client);
      response = client.request(traced_request);
    } catch (const Error&) {
      pool_.report_failure(backend);
      continue;  // next backend in ring preference inherits the key
    }
    pool_.report_success(backend);
    if (!response.get_bool("ok", false)) {
      // Application-level rejection (queue_full, invalid spec): the fleet's
      // answer, not a transport failure. Forwarded as-is so the caller
      // retries against the same affinity; queue_full gains a backoff hint.
      admission_.release(tenant);
      if (response.get_string("error", "") == "queue_full") {
        response.set("retry_after_ms", Json(config_.admission.retry_after_base_ms));
      }
      return response;
    }
    const std::uint64_t backend_job = response.get_u64("job", 0);
    std::uint64_t router_job = 0;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      router_job = next_job_id_++;
      RoutedJob job;
      job.backend = backend;
      job.backend_job = backend_job;
      job.key = key;
      job.tenant = tenant;
      // Failover resubmits reuse the traced form, so a re-homed job keeps
      // its original trace id.
      job.submit_request = traced_request;
      jobs_.emplace(router_job, std::move(job));
    }
    pool_.note_routed(backend);
    ++routed_total_;
    response.set("job", Json(router_job));
    response.set("backend", Json(backend));
    return response;
  }

  admission_.release(tenant);
  ++rejected_no_backend_total_;
  Json response =
      error_response("no_backend", "all routable backends failed during submit");
  response.set("retry_after_ms",
               Json(static_cast<double>(config_.health.interval_ms)));
  return response;
}

Json FleetRouter::handle_job_op(const Json& request, const std::string& op) {
  if (!request.has("job")) {
    return error_response("bad_request", op + " requires a \"job\" id");
  }
  const std::uint64_t router_job = request.at("job").as_u64();
  // Each failed attempt either heals the job onto another backend or gives
  // up with no_backend, so the loop is bounded by the fleet size (+1 for a
  // concurrent heal racing the first attempt).
  const std::size_t max_attempts = config_.backends.size() + 2;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::string backend;
    std::uint64_t backend_job = 0;
    std::uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      const auto it = jobs_.find(router_job);
      if (it == jobs_.end()) {
        return error_response("unknown_job",
                              "no job with id " + std::to_string(router_job));
      }
      const RoutedJob& job = it->second;
      if (job.has_terminal && op != "cancel") {
        return job.terminal_response;
      }
      if (job.finished && op == "cancel") {
        Json response = Json::object();
        response.set("ok", Json(true));
        response.set("job", Json(router_job));
        response.set("cancelled", Json(false));
        return response;
      }
      backend = job.backend;
      backend_job = job.backend_job;
      generation = job.generation;
    }

    Json forwarded = request;
    forwarded.set("job", Json(backend_job));
    Json response;
    try {
      ServiceClient client =
          ServiceClient::connect(backend, config_.backend_client);
      response = client.request(forwarded);
    } catch (const Error&) {
      pool_.report_failure(backend);
      if (!failover(router_job, generation)) {
        return error_response(
            "no_backend", "backend '" + backend +
                              "' failed and the job could not be re-routed");
      }
      continue;
    }
    pool_.report_success(backend);
    response.set("job", Json(router_job));

    if (op == "cancel") {
      if (response.get_bool("cancelled", false)) {
        // Fetch and cache the terminal status now so later status/wait
        // calls need not reach (or outlive) the backend.
        try {
          ServiceClient client =
              ServiceClient::connect(backend, config_.backend_client);
          Json status_request = Json::object();
          status_request.set("op", Json(std::string("status")));
          status_request.set("job", Json(backend_job));
          Json status = client.request(status_request);
          status.set("job", Json(router_job));
          if (is_terminal_state(status.get_string("state", ""))) {
            finish_job(router_job, &status);
          } else {
            finish_job(router_job, nullptr);
          }
        } catch (const Error&) {
          finish_job(router_job, nullptr);
        }
      }
      return response;
    }

    if (response.get_bool("ok", false) &&
        is_terminal_state(response.get_string("state", ""))) {
      finish_job(router_job, &response);
    }
    return response;
  }
  return error_response("no_backend",
                        "job unreachable after repeated backend failures");
}

bool FleetRouter::failover(std::uint64_t router_job, std::uint64_t failed_generation) {
  // One resubmission at a time fleet-wide: concurrent ops that saw the same
  // failure line up here, and all but the first find the generation already
  // bumped and simply retry.
  std::lock_guard<std::mutex> failover_lock(failover_mu_);

  std::string old_backend;
  std::uint64_t key = 0;
  Json submit_request;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(router_job);
    if (it == jobs_.end()) {
      return false;
    }
    const RoutedJob& job = it->second;
    if (job.finished || job.has_terminal) {
      // Already terminal through another path: a finished job is never
      // resubmitted (that would duplicate completed work).
      return false;
    }
    if (job.generation != failed_generation) {
      return true;  // another thread already re-homed it; caller retries
    }
    old_backend = job.backend;
    key = job.key;
    submit_request = job.submit_request;
  }

  std::vector<std::string> candidates = pool_.route_preference(key);
  for (const std::string& candidate : candidates) {
    if (candidate == old_backend) {
      continue;
    }
    Json response;
    try {
      ServiceClient client =
          ServiceClient::connect(candidate, config_.backend_client);
      // rqsim-analyze: allow(RQS102) failover_mu_ deliberately serializes resubmissions fleet-wide, network round-trip included (see router.hpp)
      response = client.request(submit_request);
    } catch (const Error&) {
      pool_.report_failure(candidate);
      continue;
    }
    pool_.report_success(candidate);
    if (!response.get_bool("ok", false)) {
      continue;  // e.g. queue_full on the fallback; try the next one
    }
    const std::uint64_t new_backend_job = response.get_u64("job", 0);
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      const auto it = jobs_.find(router_job);
      if (it == jobs_.end()) {
        return false;
      }
      RoutedJob& job = it->second;
      job.backend = candidate;
      job.backend_job = new_backend_job;
      ++job.generation;
    }
    pool_.note_rerouted(old_backend);
    pool_.note_routed(candidate);
    ++resubmits_total_;
    return true;
  }
  return false;
}

void FleetRouter::finish_job(std::uint64_t router_job, const Json* terminal_response) {
  std::string backend;
  std::string tenant;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(router_job);
    if (it == jobs_.end()) {
      return;
    }
    RoutedJob& job = it->second;
    if (terminal_response != nullptr) {
      job.terminal_response = *terminal_response;
      job.has_terminal = true;
    }
    if (job.finished) {
      return;  // accounting already done (finish is exactly-once)
    }
    job.finished = true;
    backend = job.backend;
    tenant = job.tenant;
  }
  pool_.note_finished(backend);
  admission_.release(tenant);
}

Json FleetRouter::handle_stats() {
  // Fan out to every configured backend — draining ones included, they
  // still hold jobs. Unreachable backends contribute nothing to the sums
  // but still appear in the fleet block with reachable=false.
  Json totals = Json::object();
  for (const char* field : kSummedStatsFields) {
    totals.set(field, Json(std::uint64_t{0}));
  }
  telemetry::MetricsSnapshot fleet_metrics;
  telemetry::SloTracker fleet_slo;
  std::map<std::string, Json> backend_responses;

  for (const std::string& endpoint : pool_.endpoints()) {
    Json response;
    try {
      ServiceClient client =
          ServiceClient::connect(endpoint, config_.backend_client);
      Json stats_request = Json::object();
      stats_request.set("op", Json(std::string("stats")));
      response = client.request(stats_request);
    } catch (const Error&) {
      pool_.report_failure(endpoint);
      continue;
    }
    pool_.report_success(endpoint);
    if (!response.get_bool("ok", false) || !response.has("stats")) {
      continue;
    }
    const Json& body = response.at("stats");
    for (const char* field : kSummedStatsFields) {
      totals.set(field, Json(totals.get_u64(field, 0) + body.get_u64(field, 0)));
    }
    if (response.has("telemetry")) {
      telemetry::merge_snapshot(
          fleet_metrics, metrics_snapshot_from_json(response.at("telemetry")));
    }
    // Per-tenant SLO state folds the same way the metrics registry does:
    // raw log2 buckets add, quantiles are recomputed over the merged
    // buckets (a p99 of p99s would be meaningless).
    if (response.has("slo")) {
      fleet_slo.merge(slo_from_json(response.at("slo")));
    }
    backend_responses.emplace(endpoint, std::move(response));
  }

  Json backends = Json::array();
  for (const BackendInfo& info : pool_.snapshot()) {
    Json entry = Json::object();
    entry.set("endpoint", Json(info.endpoint));
    entry.set("state", Json(std::string(backend_state_name(info.state))));
    entry.set("draining", Json(info.draining));
    entry.set("consecutive_failures", Json(std::uint64_t{info.consecutive_failures}));
    entry.set("pings_ok", Json(info.pings_ok));
    entry.set("pings_failed", Json(info.pings_failed));
    entry.set("ejections", Json(info.ejections));
    entry.set("jobs_routed", Json(info.jobs_routed));
    entry.set("jobs_finished", Json(info.jobs_finished));
    entry.set("inflight", Json(static_cast<std::uint64_t>(info.inflight)));
    const auto it = backend_responses.find(info.endpoint);
    entry.set("reachable", Json(it != backend_responses.end()));
    if (it != backend_responses.end()) {
      const Json& body = it->second.at("stats");
      entry.set("queued_now", Json(body.get_u64("queued_now", 0)));
      entry.set("running_now", Json(body.get_u64("running_now", 0)));
      entry.set("completed", Json(body.get_u64("completed", 0)));
      if (it->second.has("build")) {
        const Json& build = it->second.at("build");
        entry.set("version", Json(build.get_string("version", "")));
        entry.set("uptime_ms", Json(build.get_number("uptime_ms", 0.0)));
      }
      // Headline tail latency per backend: the total (all-tenant) e2e p99
      // as this backend reported it.
      if (it->second.has("slo") && it->second.at("slo").has("total")) {
        const Json& total = it->second.at("slo").at("total");
        if (total.has("e2e_us")) {
          entry.set("e2e_p99_us", Json(total.at("e2e_us").get_number("p99", 0.0)));
        }
      }
    }
    backends.push_back(std::move(entry));
  }

  Json tenants = Json::object();
  for (const auto& [name, stats] : admission_.stats()) {
    Json entry = Json::object();
    entry.set("admitted", Json(stats.admitted));
    entry.set("rejected", Json(stats.rejected));
    entry.set("inflight", Json(static_cast<std::uint64_t>(stats.inflight)));
    entry.set("weight", Json(stats.weight));
    tenants.set(name.empty() ? "(anonymous)" : name, std::move(entry));
  }

  Json router = Json::object();
  router.set("jobs_routed", Json(routed_total_.load()));
  router.set("resubmits", Json(resubmits_total_.load()));
  router.set("rejected_quota", Json(rejected_quota_total_.load()));
  router.set("rejected_no_backend", Json(rejected_no_backend_total_.load()));
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    router.set("jobs_tracked", Json(static_cast<std::uint64_t>(jobs_.size())));
  }

  // Headline number: of all jobs the fleet completed, the fraction that ran
  // inside a merged batch spanning more than one tenant — the reuse that
  // only exists because affinity routing co-located the tenants.
  const std::uint64_t completed = totals.get_u64("completed", 0);
  const std::uint64_t cross_jobs = totals.get_u64("merged_cross_tenant_jobs", 0);
  const double hit_rate =
      completed > 0 ? static_cast<double>(cross_jobs) / static_cast<double>(completed)
                    : 0.0;

  Json fleet = Json::object();
  fleet.set("backends", std::move(backends));
  fleet.set("tenants", std::move(tenants));
  fleet.set("router", std::move(router));
  fleet.set("cross_tenant_merge_hit_rate", Json(hit_rate));

  Json response = Json::object();
  response.set("ok", Json(true));
  response.set("stats", std::move(totals));
  response.set("telemetry", metrics_snapshot_to_json(fleet_metrics));
  response.set("slo", slo_to_json(fleet_slo));
  Json build = Json::object();
  build.set("version", Json(kVersion));
  build.set("uptime_ms", Json(telemetry::process_uptime_ms()));
  response.set("build", std::move(build));
  response.set("fleet", std::move(fleet));
  return response;
}

Json FleetRouter::handle_trace(const Json& request) {
  const std::string action = request.get_string("action", "collect");
  if (action != "start" && action != "stop" && action != "collect") {
    return error_response("bad_request", "unknown trace action '" + action +
                                             "' (start | stop | collect)");
  }

  if (action == "start" || action == "stop") {
    if (action == "start") {
      telemetry::start_tracing();
    } else {
      telemetry::stop_tracing();
    }
    Json forward = Json::object();
    forward.set("op", Json(std::string("trace")));
    forward.set("action", Json(action));
    std::uint64_t backends_ok = 0;
    for (const std::string& endpoint : pool_.endpoints()) {
      try {
        ServiceClient client =
            ServiceClient::connect(endpoint, config_.backend_client);
        if (client.request(forward).get_bool("ok", false)) {
          ++backends_ok;
        }
      } catch (const Error&) {
        pool_.report_failure(endpoint);
      }
    }
    Json response = Json::object();
    response.set("ok", Json(true));
    response.set("tracing", Json(action == "start"));
    response.set("backends", Json(backends_ok));
    return response;
  }

  // collect: pull every process's buffers and express each epoch in the
  // router's clock domain so trace-merge can put them on one timeline.
  telemetry::stop_tracing();
  Json processes = Json::array();
  {
    Json own = Json::object();
    own.set("name", Json(std::string("router")));
    own.set("trace", Json::parse(telemetry::trace_to_json()));
    own.set("epoch_us", Json(telemetry::trace_epoch_ns() / 1000));
    own.set("skew_us", Json(0.0));
    processes.push_back(std::move(own));
  }
  Json collect = Json::object();
  collect.set("op", Json(std::string("trace")));
  collect.set("action", Json(std::string("collect")));
  Json ping = Json::object();
  ping.set("op", Json(std::string("ping")));
  for (const std::string& endpoint : pool_.endpoints()) {
    try {
      ServiceClient client =
          ServiceClient::connect(endpoint, config_.backend_client);
      // Clock-offset estimate: the backend's clock sample sits (on average)
      // at the midpoint of the ping round trip on the router's clock, so
      // skew = remote_sample - midpoint. Monotonic clocks of different
      // processes have unrelated epochs; this is what lines them up.
      const double t0 = static_cast<double>(telemetry::now_ns()) / 1000.0;
      const Json pong = client.request(ping);
      const double t1 = static_cast<double>(telemetry::now_ns()) / 1000.0;
      const double remote = pong.get_number("clock_us", 0.0);
      const double skew_us = remote - (t0 + t1) / 2.0;
      Json collected = client.request(collect);
      if (!collected.get_bool("ok", false) || !collected.has("trace")) {
        continue;
      }
      Json entry = Json::object();
      entry.set("name", Json("backend " + endpoint));
      entry.set("trace", collected.at("trace"));
      entry.set("epoch_us",
                Json(collected.get_number("epoch_us", 0.0) - skew_us));
      entry.set("skew_us", Json(skew_us));
      entry.set("dropped_events", Json(collected.get_u64("dropped_events", 0)));
      processes.push_back(std::move(entry));
    } catch (const Error&) {
      pool_.report_failure(endpoint);
    }
  }
  Json response = Json::object();
  response.set("ok", Json(true));
  response.set("tracing", Json(false));
  response.set("processes", std::move(processes));
  return response;
}

Json FleetRouter::handle_drain(const Json& request, bool draining) {
  const std::string endpoint = request.get_string("backend", "");
  if (endpoint.empty()) {
    return error_response("bad_request", "drain/undrain: missing 'backend'");
  }
  if (!pool_.set_draining(endpoint, draining)) {
    return error_response("bad_request", "unknown backend '" + endpoint + "'");
  }
  const auto info = pool_.info(endpoint);
  Json response = Json::object();
  response.set("ok", Json(true));
  response.set("backend", Json(endpoint));
  response.set("draining", Json(draining));
  if (info) {
    response.set("state", Json(std::string(backend_state_name(info->state))));
    response.set("inflight", Json(static_cast<std::uint64_t>(info->inflight)));
  }
  return response;
}

}  // namespace rqsim
