#include "service/protocol.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/version.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/trace.hpp"

namespace rqsim {

Json error_response(const std::string& code, const std::string& detail) {
  Json response = Json::object();
  response.set("ok", Json(false));
  response.set("error", Json(code));
  response.set("detail", Json(detail));
  return response;
}

namespace {

ExecutionMode mode_from_string(const std::string& mode) {
  if (mode == "baseline") {
    return ExecutionMode::kBaseline;
  }
  if (mode == "cached") {
    return ExecutionMode::kCachedReordered;
  }
  if (mode == "unordered") {
    return ExecutionMode::kCachedUnordered;
  }
  throw Error("unknown mode '" + mode + "' (baseline | cached | unordered)");
}

JobPriority priority_from_string(const std::string& priority) {
  if (priority == "low") {
    return JobPriority::kLow;
  }
  if (priority == "normal") {
    return JobPriority::kNormal;
  }
  if (priority == "high") {
    return JobPriority::kHigh;
  }
  throw Error("unknown priority '" + priority + "' (low | normal | high)");
}

/// The process's monotonic clock in microseconds. Wire clocks are µs (not
/// ns) because Json numbers are doubles: µs stay exactly representable for
/// centuries of uptime, ns only for ~104 days.
std::uint64_t clock_us_now() { return telemetry::now_ns() / 1000; }

void set_quantiles(Json& hist, const std::vector<std::uint64_t>& buckets,
                   std::uint64_t count) {
  hist.set("p50", Json(telemetry::histogram_quantile(buckets, count, 0.50)));
  hist.set("p90", Json(telemetry::histogram_quantile(buckets, count, 0.90)));
  hist.set("p99", Json(telemetry::histogram_quantile(buckets, count, 0.99)));
}

Json latency_hist_to_json(const telemetry::LatencyHistogram& hist) {
  Json json = Json::object();
  json.set("count", Json(hist.count));
  json.set("sum", Json(hist.sum));
  Json buckets = Json::array();
  for (const std::uint64_t bucket : hist.buckets) {
    buckets.push_back(Json(bucket));
  }
  json.set("buckets", std::move(buckets));
  set_quantiles(json, hist.buckets, hist.count);
  return json;
}

telemetry::LatencyHistogram latency_hist_from_json(const Json& json) {
  telemetry::LatencyHistogram hist;
  if (!json.is_object()) {
    return hist;
  }
  hist.count = json.get_u64("count", 0);
  hist.sum = json.get_u64("sum", 0);
  hist.buckets.clear();
  if (json.has("buckets")) {
    for (const Json& bucket : json.at("buckets").as_array()) {
      hist.buckets.push_back(bucket.as_u64());
    }
  }
  hist.buckets.resize(telemetry::kHistogramBuckets, 0);
  return hist;
}

Json tenant_slo_to_json(const telemetry::TenantSlo& slo) {
  Json json = Json::object();
  json.set("queue_us", latency_hist_to_json(slo.queue_us));
  json.set("exec_us", latency_hist_to_json(slo.exec_us));
  json.set("e2e_us", latency_hist_to_json(slo.e2e_us));
  Json exemplars = Json::array();
  for (const telemetry::SloExemplar& ex : slo.exemplars) {
    Json entry = Json::object();
    entry.set("job", Json(ex.job_id));
    entry.set("trace_id", Json(telemetry::trace_id_to_hex(ex.trace_id)));
    entry.set("e2e_us", Json(ex.e2e_us));
    exemplars.push_back(std::move(entry));
  }
  json.set("exemplars", std::move(exemplars));
  return json;
}

telemetry::TenantSlo tenant_slo_from_json(const Json& json) {
  telemetry::TenantSlo slo;
  if (!json.is_object()) {
    return slo;
  }
  if (json.has("queue_us")) slo.queue_us = latency_hist_from_json(json.at("queue_us"));
  if (json.has("exec_us")) slo.exec_us = latency_hist_from_json(json.at("exec_us"));
  if (json.has("e2e_us")) slo.e2e_us = latency_hist_from_json(json.at("e2e_us"));
  if (json.has("exemplars") && json.at("exemplars").is_array()) {
    for (const Json& entry : json.at("exemplars").as_array()) {
      if (!entry.is_object()) continue;
      telemetry::SloExemplar ex;
      ex.job_id = entry.get_u64("job", 0);
      ex.trace_id = telemetry::trace_id_from_hex(entry.get_string("trace_id", ""));
      ex.e2e_us = entry.get_u64("e2e_us", 0);
      slo.exemplars.push_back(ex);
    }
  }
  return slo;
}

}  // namespace

Json slo_to_json(const telemetry::SloTracker& slo) {
  Json json = Json::object();
  Json tenants = Json::object();
  for (const auto& [name, tenant_slo] : slo.tenants) {
    tenants.set(name, tenant_slo_to_json(tenant_slo));
  }
  json.set("tenants", std::move(tenants));
  json.set("total", tenant_slo_to_json(slo.total));
  return json;
}

telemetry::SloTracker slo_from_json(const Json& json) {
  telemetry::SloTracker slo;
  if (!json.is_object()) {
    return slo;
  }
  if (json.has("tenants") && json.at("tenants").is_object()) {
    for (const auto& [name, tenant_json] : json.at("tenants").as_object()) {
      slo.tenants[name] = tenant_slo_from_json(tenant_json);
    }
  }
  if (json.has("total")) {
    slo.total = tenant_slo_from_json(json.at("total"));
  }
  return slo;
}

Json oversized_line_error() {
  return error_response("oversized_line",
                        "request line exceeds " + std::to_string(kMaxLineBytes) +
                            " bytes; frame discarded");
}

Json workload_to_json(const WorkloadSpec& spec) {
  Json json = Json::object();
  if (!spec.circuit_spec.empty()) {
    json.set("circuit", Json(spec.circuit_spec));
  }
  if (!spec.qasm.empty()) {
    json.set("qasm", Json(spec.qasm));
  }
  json.set("device", Json(spec.device));
  if (spec.device_qubits > 0) {
    json.set("qubits", Json(static_cast<std::uint64_t>(spec.device_qubits)));
  }
  json.set("rate", Json(spec.device_rate));
  json.set("scale", Json(spec.noise_scale));
  json.set("no_transpile", Json(spec.no_transpile));
  return json;
}

WorkloadSpec workload_from_json(const Json& json) {
  WorkloadSpec spec;
  spec.circuit_spec = json.get_string("circuit", "");
  spec.qasm = json.get_string("qasm", "");
  spec.device = json.get_string("device", "yorktown");
  spec.device_qubits = static_cast<unsigned>(json.get_u64("qubits", 0));
  spec.device_rate = json.get_number("rate", 1e-3);
  spec.noise_scale = json.get_number("scale", 1.0);
  spec.no_transpile = json.get_bool("no_transpile", false);
  return spec;
}

Json make_submit_request(const WorkloadSpec& workload, const SubmitParams& params) {
  Json request = Json::object();
  request.set("op", Json("submit"));
  request.set("workload", workload_to_json(workload));
  request.set("trials", Json(static_cast<std::uint64_t>(params.trials)));
  request.set("seed", Json(params.seed));
  request.set("mode", Json(params.mode));
  request.set("max_states", Json(static_cast<std::uint64_t>(params.max_states)));
  request.set("threads", Json(static_cast<std::uint64_t>(params.threads)));
  request.set("priority", Json(params.priority));
  request.set("analyze", Json(params.analyze));
  request.set("fuse", Json(params.fuse));
  request.set("frames", Json(params.frames));
  if (!params.tenant.empty()) {
    request.set("tenant", Json(params.tenant));
  }
  if (!params.trace_id.empty()) {
    request.set("trace_id", Json(params.trace_id));
  }
  return request;
}

Json metrics_snapshot_to_json(const telemetry::MetricsSnapshot& snapshot) {
  Json json = Json::object();
  for (const telemetry::MetricValue& metric : snapshot.metrics) {
    if (metric.kind == telemetry::MetricKind::kHistogram) {
      Json hist = Json::object();
      hist.set("count", Json(metric.count));
      hist.set("sum", Json(metric.sum));
      Json buckets = Json::array();
      for (const std::uint64_t bucket : metric.buckets) {
        buckets.push_back(Json(bucket));
      }
      hist.set("buckets", std::move(buckets));
      set_quantiles(hist, metric.buckets, metric.count);
      json.set(metric.name, std::move(hist));
    } else if (metric.kind == telemetry::MetricKind::kMaxGauge) {
      Json gauge = Json::object();
      gauge.set("max", Json(metric.value));
      json.set(metric.name, std::move(gauge));
    } else {
      json.set(metric.name, Json(metric.value));
    }
  }
  return json;
}

telemetry::MetricsSnapshot metrics_snapshot_from_json(const Json& json) {
  telemetry::MetricsSnapshot snapshot;
  if (!json.is_object()) {
    return snapshot;
  }
  for (const auto& [name, value] : json.as_object()) {
    telemetry::MetricValue metric;
    metric.name = name;
    if (value.is_number()) {
      metric.kind = telemetry::MetricKind::kCounter;
      metric.value = value.as_u64();
    } else if (value.is_object() && value.has("max")) {
      metric.kind = telemetry::MetricKind::kMaxGauge;
      metric.value = value.at("max").as_u64();
    } else if (value.is_object() && value.has("buckets")) {
      metric.kind = telemetry::MetricKind::kHistogram;
      metric.count = value.get_u64("count", 0);
      metric.sum = value.get_u64("sum", 0);
      for (const Json& bucket : value.at("buckets").as_array()) {
        metric.buckets.push_back(bucket.as_u64());
      }
    } else {
      continue;  // unknown shape from a newer/older peer: skip, don't fail
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  return snapshot;
}

Json job_result_to_json(const JobResult& result) {
  Json json = Json::object();
  json.set("ops", Json(result.run.ops));
  json.set("baseline_ops", Json(result.run.baseline_ops));
  json.set("normalized_computation", Json(result.run.normalized_computation));
  json.set("max_live_states", Json(result.run.max_live_states));
  json.set("mean_errors_per_trial", Json(result.run.trial_stats.mean_errors));
  json.set("queue_ms", Json(result.queue_ms));
  json.set("exec_ms", Json(result.exec_ms));
  if (result.trace_id != 0) {
    json.set("trace_id", Json(telemetry::trace_id_to_hex(result.trace_id)));
  }
  json.set("batch_size", Json(result.batch_size));
  json.set("batch_ops", Json(result.batch_ops));
  json.set("solo_ops", Json(result.solo_ops));
  {
    const TelemetrySummary& telem = result.run.telemetry;
    Json summary = Json::object();
    summary.set("measured", Json(telem.measured));
    summary.set("measured_ops", Json(telem.measured_ops));
    summary.set("ops_saved_vs_baseline", Json(telem.ops_saved_vs_baseline));
    summary.set("prefix_cache_hit_ratio", Json(telem.prefix_cache_hit_ratio));
    summary.set("wall_ms", Json(telem.wall_ms));
    summary.set("steals", Json(telem.steals));
    summary.set("inline_fallbacks", Json(telem.inline_fallbacks));
    summary.set("pool_reuses", Json(telem.pool_reuses));
    summary.set("pool_allocs", Json(telem.pool_allocs));
    summary.set("peak_live_states", Json(telem.peak_live_states));
    summary.set("frame_collapsed_trials", Json(telem.frame_collapsed_trials));
    summary.set("frame_ops", Json(telem.frame_ops));
    json.set("telemetry", std::move(summary));
  }
  if (!result.run.histogram.empty()) {
    Json histogram = Json::object();
    for (const auto& [outcome, count] : result.run.histogram) {
      histogram.set(to_bitstring(outcome, static_cast<unsigned>(result.num_measured)),
                    Json(count));
    }
    json.set("histogram", std::move(histogram));
  }
  if (!result.run.observable_means.empty()) {
    Json means = Json::array();
    for (const double mean : result.run.observable_means) {
      means.push_back(Json(mean));
    }
    json.set("observable_means", std::move(means));
  }
  return json;
}

std::string ProtocolHandler::handle_line(const std::string& line) {
  Json request;
  try {
    request = Json::parse(line);
  } catch (const Error& e) {
    return error_response("bad_request", e.what()).dump();
  }
  return handle(request).dump();
}

Json ProtocolHandler::handle(const Json& request) {
  try {
    if (!request.is_object()) {
      return error_response("bad_request", "request must be a JSON object");
    }
    const std::string op = request.get_string("op", "");
    if (op == "ping") {
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("pong", Json(true));
      // Monotonic clock sample: callers bracket the ping with their own
      // clock reads to estimate this process's clock offset (trace-merge
      // skew correction).
      response.set("clock_us", Json(clock_us_now()));
      return response;
    }
    if (op == "submit") {
      return handle_submit(request);
    }
    if (op == "status") {
      return handle_status(request, /*wait=*/false);
    }
    if (op == "wait") {
      return handle_status(request, /*wait=*/true);
    }
    if (op == "cancel") {
      if (!request.has("job")) {
        return error_response("bad_request", "cancel requires a \"job\" id");
      }
      const std::uint64_t job_id = request.at("job").as_u64();
      const bool cancelled = service_.cancel(job_id);
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("job", Json(job_id));
      response.set("cancelled", Json(cancelled));
      return response;
    }
    if (op == "stats") {
      const ServiceStats stats = service_.stats();
      Json body = Json::object();
      body.set("submitted", Json(stats.submitted));
      body.set("rejected", Json(stats.rejected));
      body.set("completed", Json(stats.completed));
      body.set("failed", Json(stats.failed));
      body.set("cancelled", Json(stats.cancelled));
      body.set("merged_batches", Json(stats.merged_batches));
      body.set("merged_jobs", Json(stats.merged_jobs));
      body.set("merged_batch_ops", Json(stats.merged_batch_ops));
      body.set("merged_solo_ops", Json(stats.merged_solo_ops));
      body.set("merged_cross_tenant_batches", Json(stats.merged_cross_tenant_batches));
      body.set("merged_cross_tenant_jobs", Json(stats.merged_cross_tenant_jobs));
      body.set("queued_now", Json(stats.queued_now));
      body.set("running_now", Json(stats.running_now));
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("stats", std::move(body));
      // Full process-wide metrics snapshot (values stop moving while
      // telemetry is disabled): registry counters, gauges, histograms.
      response.set("telemetry",
                   metrics_snapshot_to_json(telemetry::snapshot_metrics()));
      response.set("slo", slo_to_json(service_.slo_snapshot()));
      Json build = Json::object();
      build.set("version", Json(kVersion));
      build.set("uptime_ms", Json(telemetry::process_uptime_ms()));
      response.set("build", std::move(build));
      return response;
    }
    if (op == "trace") {
      const std::string action = request.get_string("action", "collect");
      Json response = Json::object();
      response.set("ok", Json(true));
      if (action == "start") {
        telemetry::start_tracing();
        response.set("tracing", Json(true));
        return response;
      }
      if (action == "stop") {
        telemetry::stop_tracing();
        response.set("tracing", Json(false));
        return response;
      }
      if (action == "collect") {
        // Collect implies stop: export expects quiescent buffers, and a
        // registry still admitting events would race the serialization.
        telemetry::stop_tracing();
        response.set("tracing", Json(false));
        response.set("trace", Json::parse(telemetry::trace_to_json()));
        response.set("epoch_us", Json(telemetry::trace_epoch_ns() / 1000));
        response.set("clock_us", Json(clock_us_now()));
        response.set("dropped_events", Json(telemetry::trace_dropped_events()));
        return response;
      }
      return error_response("bad_request", "unknown trace action '" + action +
                                               "' (start | stop | collect)");
    }
    if (op == "shutdown") {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
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

bool ProtocolHandler::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

Json ProtocolHandler::handle_submit(const Json& request) {
  JobSpec spec;
  try {
    RQSIM_CHECK(request.has("workload"), "submit: missing 'workload'");
    Workload workload = build_workload(workload_from_json(request.at("workload")));
    spec.circuit = std::move(workload.circuit);
    spec.noise = std::move(workload.noise);
    spec.config.num_trials = static_cast<std::size_t>(request.get_u64("trials", 1024));
    spec.config.seed = request.get_u64("seed", 1);
    spec.config.mode = mode_from_string(request.get_string("mode", "cached"));
    spec.config.max_states =
        static_cast<std::size_t>(request.get_u64("max_states", 0));
    spec.config.fuse_gates = request.get_bool("fuse", false);
    spec.config.frame_collapse = request.get_bool("frames", false);
    spec.config.num_threads = static_cast<std::size_t>(request.get_u64("threads", 1));
    spec.analyze_only = request.get_bool("analyze", false);
    spec.priority = priority_from_string(request.get_string("priority", "normal"));
    spec.tenant = request.get_string("tenant", "");
    // Propagated id (router / client) or minted here: every accepted job
    // has a trace identity, whether or not anyone is recording spans.
    spec.trace_id =
        telemetry::trace_id_from_hex(request.get_string("trace_id", ""));
    if (spec.trace_id == 0) {
      spec.trace_id = telemetry::mint_trace_id();
    }
  } catch (const Error& e) {
    return error_response("invalid", e.what());
  }

  const std::uint64_t trace_id = spec.trace_id;
  const SubmitOutcome outcome = service_.try_submit(std::move(spec));
  switch (outcome.status) {
    case SubmitStatus::kAccepted: {
      Json response = Json::object();
      response.set("ok", Json(true));
      response.set("job", Json(outcome.job_id));
      response.set("state", Json("queued"));
      response.set("trace_id", Json(telemetry::trace_id_to_hex(trace_id)));
      return response;
    }
    case SubmitStatus::kQueueFull:
      return error_response("queue_full", outcome.error);
    case SubmitStatus::kInvalid:
      return error_response("invalid", outcome.error);
    case SubmitStatus::kShutdown:
      return error_response("shutdown", outcome.error);
  }
  return error_response("internal", "unreachable submit status");
}

Json ProtocolHandler::handle_status(const Json& request, bool wait) {
  if (!request.has("job")) {
    return error_response("bad_request",
                          (wait ? std::string("wait") : std::string("status")) +
                              " requires a \"job\" id");
  }
  const std::uint64_t job_id = request.at("job").as_u64();
  if (!service_.poll(job_id)) {
    return error_response("unknown_job", "no job with id " + std::to_string(job_id));
  }
  if (wait) {
    service_.wait(job_id);
  }
  return job_status_response(job_id);
}

Json ProtocolHandler::job_status_response(std::uint64_t job_id) {
  const std::optional<JobStatus> status = service_.poll(job_id);
  if (!status) {
    return error_response("unknown_job", "no job with id " + std::to_string(job_id));
  }
  Json response = Json::object();
  response.set("ok", Json(true));
  response.set("job", Json(job_id));
  response.set("state", Json(job_state_name(status->state)));
  response.set("priority", Json(job_priority_name(status->priority)));
  const std::optional<JobResult> result = service_.result(job_id);
  if (result) {
    if (result->state == JobState::kDone) {
      response.set("result", job_result_to_json(*result));
    } else if (result->state == JobState::kFailed) {
      response.set("detail", Json(result->error));
    }
  }
  return response;
}

}  // namespace rqsim
