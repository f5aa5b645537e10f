// Observability layer: histogram quantiles, the per-tenant SLO tracker,
// distributed-trace ids and retroactive complete events, multi-process
// trace merging with clock-skew correction, Prometheus text exposition —
// and the fleet acceptance test: jobs submitted through a 2-backend router
// produce one merged trace whose router-admission, queue-wait, planning
// and tree-executor spans share the submitting job's trace_id, with the
// same trace_ids surfacing as SLO exemplars in `stats` JSON and
// `stats --prom` output.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "report/prom.hpp"
#include "report/trace_merge.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace rqsim {
namespace {

// ---------------------------------------------------------------------------
// histogram_quantile (pure data; always compiled).
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, EmptyAndZeroBuckets) {
  std::vector<std::uint64_t> buckets(telemetry::kHistogramBuckets, 0);
  EXPECT_EQ(telemetry::histogram_quantile(buckets, 0, 0.5), 0.0);

  buckets[0] = 10;  // ten exact zeros
  EXPECT_EQ(telemetry::histogram_quantile(buckets, 10, 0.99), 0.0);
}

TEST(HistogramQuantile, InterpolatesInsideBucketRange) {
  std::vector<std::uint64_t> buckets(telemetry::kHistogramBuckets, 0);
  buckets[3] = 10;  // values in [4, 8)
  const double p50 = telemetry::histogram_quantile(buckets, 10, 0.50);
  const double p99 = telemetry::histogram_quantile(buckets, 10, 0.99);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 8.0);
}

TEST(HistogramQuantile, WalksCumulativeBuckets) {
  std::vector<std::uint64_t> buckets(telemetry::kHistogramBuckets, 0);
  buckets[1] = 90;   // ninety samples of value 1
  buckets[10] = 10;  // ten samples in [512, 1024)
  const double p50 = telemetry::histogram_quantile(buckets, 100, 0.50);
  const double p99 = telemetry::histogram_quantile(buckets, 100, 0.99);
  EXPECT_LE(p50, 2.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
}

// ---------------------------------------------------------------------------
// SLO layer (pure data; always compiled).
// ---------------------------------------------------------------------------

TEST(Slo, LatencyHistogramRecordMergeQuantile) {
  telemetry::LatencyHistogram h;
  for (std::uint64_t v : {100u, 200u, 400u, 800u}) {
    h.record(v);
  }
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1500u);
  EXPECT_GT(h.quantile(0.99), h.quantile(0.01));

  telemetry::LatencyHistogram other = h;
  h.merge(other);
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.sum, 3000u);
}

TEST(Slo, TrackerKeepsTopExemplarsSlowestFirst) {
  telemetry::SloTracker tracker;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    // e2e latency grows with i; only the slowest five survive.
    tracker.record("alice", /*job_id=*/i, /*trace_id=*/i * 11,
                   /*queue_us=*/10, /*exec_us=*/i * 100);
  }
  const telemetry::TenantSlo& alice = tracker.tenants.at("alice");
  EXPECT_EQ(alice.e2e_us.count, 8u);
  ASSERT_EQ(alice.exemplars.size(), telemetry::kSloExemplars);
  EXPECT_EQ(alice.exemplars.front().job_id, 8u);  // slowest first
  for (std::size_t i = 1; i < alice.exemplars.size(); ++i) {
    EXPECT_GE(alice.exemplars[i - 1].e2e_us, alice.exemplars[i].e2e_us);
  }
  EXPECT_EQ(tracker.total.e2e_us.count, 8u);
}

TEST(Slo, MergeFoldsTenantsAndTotals) {
  telemetry::SloTracker a;
  a.record("alice", 1, 111, 5, 50);
  telemetry::SloTracker b;
  b.record("alice", 2, 222, 5, 500);
  b.record("bob", 3, 333, 5, 5);
  a.merge(b);
  EXPECT_EQ(a.tenants.size(), 2u);
  EXPECT_EQ(a.tenants.at("alice").e2e_us.count, 2u);
  EXPECT_EQ(a.tenants.at("bob").e2e_us.count, 1u);
  EXPECT_EQ(a.total.e2e_us.count, 3u);
  // Exemplars from both sides, re-ranked: alice job 2 is the slowest.
  ASSERT_FALSE(a.total.exemplars.empty());
  EXPECT_EQ(a.total.exemplars.front().job_id, 2u);
  EXPECT_EQ(a.total.exemplars.front().trace_id, 222u);
}

// ---------------------------------------------------------------------------
// Trace ids (always compiled, even with RQSIM_TELEMETRY=OFF).
// ---------------------------------------------------------------------------

TEST(TraceId, MintedIdsAreNonZeroAndDistinct) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t id = telemetry::mint_trace_id();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(TraceId, HexRoundTripAndMalformedInput) {
  const std::uint64_t id = 0xdeadbeef12345678ull;
  const std::string hex = telemetry::trace_id_to_hex(id);
  EXPECT_EQ(hex, "deadbeef12345678");
  EXPECT_EQ(telemetry::trace_id_from_hex(hex), id);
  EXPECT_EQ(telemetry::trace_id_to_hex(0), "0");
  EXPECT_EQ(telemetry::trace_id_from_hex(""), 0u);
  EXPECT_EQ(telemetry::trace_id_from_hex("not hex"), 0u);
  EXPECT_EQ(telemetry::trace_id_from_hex("123z"), 0u);
  EXPECT_EQ(telemetry::trace_id_from_hex("11112222333344445"), 0u);  // 17 chars
}

TEST(Trace, CompleteEventExportsDurationAndTraceId) {
  if (!telemetry::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::start_tracing();
  const std::uint64_t t0 = telemetry::now_ns();
  const std::uint64_t id = telemetry::mint_trace_id();
  telemetry::trace_complete("unit.queue_wait", t0, t0 + 2500000, id);
  telemetry::stop_tracing();
  const Json doc = Json::parse(telemetry::trace_to_json());
  bool found = false;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.get_string("name", "") != "unit.queue_wait") {
      continue;
    }
    found = true;
    EXPECT_EQ(event.get_string("ph", ""), "X");
    EXPECT_NEAR(event.get_number("dur", 0.0), 2500.0, 1.0);  // µs
    ASSERT_TRUE(event.has("args"));
    EXPECT_EQ(event.at("args").get_string("trace_id", ""),
              telemetry::trace_id_to_hex(id));
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Trace merging (pure data).
// ---------------------------------------------------------------------------

TEST(TraceMerge, AssignsUniquePidsAndShiftsSkewedClocks) {
  TraceProcessDoc router_doc;
  router_doc.name = "router";
  router_doc.epoch_us = 2000.0;  // started tracing 1 ms after the backend
  router_doc.trace = Json::parse(
      "{\"traceEvents\":[{\"name\":\"admit\",\"ph\":\"B\",\"pid\":1,"
      "\"tid\":7,\"ts\":10.0},{\"name\":\"admit\",\"ph\":\"E\",\"pid\":1,"
      "\"tid\":7,\"ts\":20.0}]}");
  TraceProcessDoc backend_doc;
  backend_doc.name = "backend b1";
  backend_doc.epoch_us = 1000.0;  // earliest epoch: becomes merged time 0
  backend_doc.trace = Json::parse(
      "{\"traceEvents\":[{\"name\":\"exec\",\"ph\":\"B\",\"pid\":1,"
      "\"tid\":3,\"ts\":5.0},{\"name\":\"exec\",\"ph\":\"E\",\"pid\":1,"
      "\"tid\":3,\"ts\":9.0},{\"name\":\"process_name\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"stale\"}}]}");

  const Json merged = merge_traces({router_doc, backend_doc});
  std::set<std::uint64_t> pids_with_name;
  double admit_b_ts = -1.0;
  double exec_b_ts = -1.0;
  for (const Json& event : merged.at("traceEvents").as_array()) {
    const std::string phase = event.get_string("ph", "");
    const std::string name = event.get_string("name", "");
    if (phase == "M" && name == "process_name") {
      EXPECT_NE(event.at("args").get_string("name", ""), "stale");
      pids_with_name.insert(event.get_u64("pid", 0));
    }
    if (phase == "B" && name == "admit") {
      admit_b_ts = event.get_number("ts", -1.0);
      EXPECT_EQ(event.get_u64("pid", 0), 1u);
    }
    if (phase == "B" && name == "exec") {
      exec_b_ts = event.get_number("ts", -1.0);
      EXPECT_EQ(event.get_u64("pid", 0), 2u);
    }
  }
  EXPECT_EQ(pids_with_name.size(), 2u);  // one named lane group per process
  // Router events shift by its 1000 µs epoch offset; backend events don't.
  EXPECT_DOUBLE_EQ(admit_b_ts, 1010.0);
  EXPECT_DOUBLE_EQ(exec_b_ts, 5.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition (pure text rendering).
// ---------------------------------------------------------------------------

Json sample_stats_response() {
  Json hist = Json::object();
  hist.set("count", Json(std::uint64_t{3}));
  hist.set("sum", Json(std::uint64_t{21}));
  Json buckets = Json::array();
  buckets.push_back(Json(std::uint64_t{0}));
  buckets.push_back(Json(std::uint64_t{1}));
  buckets.push_back(Json(std::uint64_t{2}));
  hist.set("buckets", std::move(buckets));

  Json telemetry_block = Json::object();
  telemetry_block.set("sim.matvec_ops", Json(std::uint64_t{42}));
  telemetry_block.set("service.job_exec_us", std::move(hist));

  Json latency = Json::object();
  latency.set("count", Json(std::uint64_t{2}));
  latency.set("sum", Json(std::uint64_t{30}));
  latency.set("p50", Json(10.0));
  latency.set("p90", Json(20.0));
  latency.set("p99", Json(25.0));

  Json exemplar = Json::object();
  exemplar.set("job", Json(std::uint64_t{7}));
  exemplar.set("trace_id", Json(std::string("abc123")));
  exemplar.set("e2e_us", Json(std::uint64_t{999}));
  Json exemplars = Json::array();
  exemplars.push_back(std::move(exemplar));

  Json tenant = Json::object();
  tenant.set("queue_us", latency);
  tenant.set("exec_us", latency);
  tenant.set("e2e_us", latency);
  tenant.set("exemplars", std::move(exemplars));
  Json tenants = Json::object();
  tenants.set("ali\"ce", tenant);
  Json slo = Json::object();
  slo.set("tenants", std::move(tenants));
  slo.set("total", std::move(tenant));

  Json build = Json::object();
  build.set("version", Json(std::string("9.9.9")));
  build.set("uptime_ms", Json(1234.0));

  Json stats = Json::object();
  stats.set("completed", Json(std::uint64_t{3}));

  Json response = Json::object();
  response.set("ok", Json(true));
  response.set("stats", std::move(stats));
  response.set("telemetry", std::move(telemetry_block));
  response.set("slo", std::move(slo));
  response.set("build", std::move(build));
  return response;
}

TEST(Prometheus, RendersCountersHistogramsAndBuildInfo) {
  const std::string text = stats_to_prometheus(sample_stats_response());
  EXPECT_NE(text.find("# TYPE rqsim_build_info gauge\n"), std::string::npos);
  EXPECT_NE(text.find("rqsim_build_info{version=\"9.9.9\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_uptime_ms 1234\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rqsim_sim_matvec_ops counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_sim_matvec_ops 42\n"), std::string::npos);
  // Metric names never keep the registry dots.
  EXPECT_EQ(text.find("rqsim_sim.matvec_ops"), std::string::npos);

  // Log2 histogram: cumulative buckets with le = 2^i - 1, then +Inf.
  EXPECT_NE(text.find("# TYPE rqsim_service_job_exec_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_bucket{le=\"0\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_sum 21\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_service_job_exec_us_count 3\n"),
            std::string::npos);
}

TEST(Prometheus, RendersSloSummariesWithEscapedLabelsAndExemplars) {
  const std::string text = stats_to_prometheus(sample_stats_response());
  // The quote in the tenant name must be escaped in the label value.
  EXPECT_NE(
      text.find("rqsim_slo_e2e_us{tenant=\"ali\\\"ce\",quantile=\"0.99\"} 25\n"),
      std::string::npos);
  EXPECT_NE(text.find("rqsim_slo_e2e_us{tenant=\"_total\",quantile=\"0.5\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_slo_exemplar_e2e_us{tenant=\"_total\",job=\"7\","
                      "trace_id=\"abc123\"} 999\n"),
            std::string::npos);
  EXPECT_NE(text.find("rqsim_slo_exemplar_e2e_us{tenant=\"ali\\\"ce\","),
            std::string::npos);

  // Grammar sweep: every line is a comment or "<name>[{labels}] <value>".
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    EXPECT_EQ(series.rfind("rqsim_", 0), 0u) << line;
    // Balanced label braces, if any.
    const std::size_t open = series.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet acceptance: 2 backends, causally linked spans, SLO exemplars.
// ---------------------------------------------------------------------------

struct Fleet {
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ServerConfig config;
      config.tcp_port = 0;
      config.service.num_workers = 0;  // drained with run_pending()
      config.service.queue_capacity = 64;
      config.service.max_batch_jobs = 8;
      servers.push_back(std::make_unique<SimServer>(std::move(config)));
      threads.emplace_back([server = servers.back().get()] { server->run(); });
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(servers.back()->tcp_port()));
    }
  }

  ~Fleet() {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      servers[i]->stop();
      threads[i].join();
    }
  }

  SimServer& by_endpoint(const std::string& endpoint) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (endpoints[i] == endpoint) {
        return *servers[i];
      }
    }
    throw Error("fleet test: unknown endpoint " + endpoint);
  }

  RouterConfig router_config() const {
    RouterConfig config;
    config.tcp_port = 0;
    config.backends = endpoints;
    config.health_thread = false;
    config.backend_client.max_attempts = 1;
    config.backend_client.connect_timeout_ms = 2000;
    return config;
  }

  std::vector<std::unique_ptr<SimServer>> servers;
  std::vector<std::thread> threads;
  std::vector<std::string> endpoints;
};

Json fleet_submit(std::size_t trials, std::uint64_t seed,
                  const std::string& tenant) {
  WorkloadSpec workload;
  workload.circuit_spec = "ghz:4";
  workload.device = "ideal";
  SubmitParams params;
  params.trials = trials;
  params.seed = seed;
  params.tenant = tenant;
  return make_submit_request(workload, params);
}

Json trace_op(const std::string& action) {
  Json request = Json::object();
  request.set("op", Json(std::string("trace")));
  request.set("action", Json(action));
  return request;
}

TEST(ObservabilityE2E, FleetTraceLinksSpansAndSloCarriesExemplars) {
  if (!telemetry::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  Fleet fleet(2);
  FleetRouter router(fleet.router_config());

  // One trace window over the whole fleet.
  const Json started = router.handle(trace_op("start"));
  ASSERT_TRUE(started.at("ok").as_bool()) << started.dump();
  EXPECT_TRUE(started.get_bool("tracing", false));
  EXPECT_EQ(started.get_u64("backends", 0), 2u);

  // Two batch-compatible jobs from two tenants: workload affinity puts
  // them on one backend, the planner merges them into one batch.
  const Json accepted_a = router.handle(fleet_submit(400, 11, "alice"));
  const Json accepted_b = router.handle(fleet_submit(400, 11, "bob"));
  ASSERT_TRUE(accepted_a.at("ok").as_bool()) << accepted_a.dump();
  ASSERT_TRUE(accepted_b.at("ok").as_bool()) << accepted_b.dump();
  const std::string trace_a = accepted_a.get_string("trace_id", "");
  const std::string trace_b = accepted_b.get_string("trace_id", "");
  ASSERT_FALSE(trace_a.empty());
  ASSERT_FALSE(trace_b.empty());
  EXPECT_NE(trace_a, trace_b);  // one trace id per submit
  ASSERT_EQ(accepted_a.get_string("backend", "a"),
            accepted_b.get_string("backend", "b"));

  fleet.by_endpoint(accepted_a.get_string("backend", "")).service().run_pending();
  for (const Json* accepted : {&accepted_a, &accepted_b}) {
    Json wait = Json::object();
    wait.set("op", Json(std::string("wait")));
    wait.set("job", accepted->at("job"));
    const Json done = router.handle(wait);
    ASSERT_EQ(done.get_string("state", ""), "done") << done.dump();
    EXPECT_FALSE(done.at("result").get_string("trace_id", "").empty());
  }

  // Collect and merge: three processes (router + 2 backends), and the
  // admission → queue wait → plan → tree-executor chain all tagged
  // with job A's trace id.
  const Json collected = router.handle(trace_op("collect"));
  ASSERT_TRUE(collected.at("ok").as_bool()) << collected.dump();
  ASSERT_TRUE(collected.has("processes"));
  ASSERT_EQ(collected.at("processes").as_array().size(), 3u);
  const Json merged = merge_collect_response(collected);

  std::set<std::string> linked_spans;
  std::set<std::uint64_t> named_pids;
  for (const Json& event : merged.at("traceEvents").as_array()) {
    if (event.get_string("ph", "") == "M" &&
        event.get_string("name", "") == "process_name") {
      named_pids.insert(event.get_u64("pid", 0));
    }
    if (event.has("args") &&
        event.at("args").get_string("trace_id", "") == trace_a) {
      linked_spans.insert(event.get_string("name", ""));
    }
  }
  EXPECT_EQ(named_pids.size(), 3u);
  EXPECT_TRUE(linked_spans.count("router.admit")) << merged.dump();
  EXPECT_TRUE(linked_spans.count("service.queue_wait")) << merged.dump();
  EXPECT_TRUE(linked_spans.count("runner.plan")) << merged.dump();
  EXPECT_TRUE(linked_spans.count("tree_exec.task")) << merged.dump();

  // SLO: per-tenant p99 histograms and exemplar trace_ids in the stats
  // JSON and in the Prometheus rendering of the same response.
  const Json stats = router.handle(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.at("ok").as_bool()) << stats.dump();
  ASSERT_TRUE(stats.has("slo"));
  const Json& slo = stats.at("slo");
  ASSERT_TRUE(slo.at("tenants").has("alice")) << slo.dump();
  ASSERT_TRUE(slo.at("tenants").has("bob")) << slo.dump();
  const Json& alice_e2e = slo.at("tenants").at("alice").at("e2e_us");
  EXPECT_EQ(alice_e2e.get_u64("count", 0), 1u);
  EXPECT_GE(alice_e2e.get_number("p99", -1.0),
            alice_e2e.get_number("p50", 0.0));
  const Json& total = slo.at("total");
  EXPECT_EQ(total.at("e2e_us").get_u64("count", 0), 2u);
  std::set<std::string> exemplar_traces;
  for (const Json& exemplar : total.at("exemplars").as_array()) {
    exemplar_traces.insert(exemplar.get_string("trace_id", ""));
  }
  EXPECT_TRUE(exemplar_traces.count(trace_a)) << total.dump();
  EXPECT_TRUE(exemplar_traces.count(trace_b)) << total.dump();

  // Fleet view carries build/version and the backend p99 column.
  ASSERT_TRUE(stats.has("build"));
  EXPECT_FALSE(stats.at("build").get_string("version", "").empty());

  const std::string prom = stats_to_prometheus(stats);
  EXPECT_NE(prom.find("rqsim_slo_e2e_us{tenant=\"alice\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("trace_id=\"" + trace_a + "\""), std::string::npos);
  EXPECT_NE(prom.find("rqsim_build_info{version=\""), std::string::npos);
}

// Trace start/stop through a single service endpoint (no router): the
// protocol verb alone controls the window and collect returns one buffer.
TEST(ObservabilityE2E, SingleServiceTraceVerbRoundTrip) {
  if (!telemetry::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ServiceConfig service_config;
  service_config.num_workers = 0;  // drained manually
  SimService service(service_config);
  ProtocolHandler handler(service);

  ASSERT_TRUE(handler.handle(trace_op("start")).get_bool("tracing", false));
  const Json accepted = handler.handle(fleet_submit(100, 3, "solo"));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  service.run_pending();

  const Json collected = handler.handle(trace_op("collect"));
  ASSERT_TRUE(collected.at("ok").as_bool()) << collected.dump();
  EXPECT_FALSE(collected.get_bool("tracing", true));
  ASSERT_TRUE(collected.has("trace"));
  EXPECT_FALSE(collected.has("processes"));  // single process: bare buffer
  bool saw_exec_span = false;
  for (const Json& event : collected.at("trace").at("traceEvents").as_array()) {
    if (event.get_string("name", "") == "service.execute_batch") {
      saw_exec_span = true;
    }
  }
  EXPECT_TRUE(saw_exec_span);

  const Json bad = handler.handle(trace_op("flood"));
  EXPECT_FALSE(bad.get_bool("ok", true));
}

}  // namespace
}  // namespace rqsim
