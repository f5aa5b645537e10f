// Telemetry subsystem: lock-free metrics registry, scoped tracing, and the
// reconciliation guarantee — the "sim.matvec_ops" registry counter must
// agree bitwise with NoisyRunResult::ops and with the PlanVerifier's
// statically proved op count, on the Table I suite, at 1/2/8 threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/suite.hpp"
#include "cli/cli.hpp"
#include "common/rng.hpp"
#include "noise/devices.hpp"
#include "sched/order.hpp"
#include "sched/runner.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {
namespace {

namespace telem = rqsim::telemetry;

// Count occurrences of a substring (crude but sufficient for asserting on
// the exported trace JSON without a full parser).
std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Registry basics.

TEST(TelemetryRegistry, CounterAggregatesAcrossThreadsAndRetirement) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::reset_metrics_for_test();
  telem::Counter counter("test.counter_agg");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&counter] {
        telem::Counter same_slot("test.counter_agg");
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          // Alternate handles: both intern to the same slot.
          (i % 2 == 0) ? counter.add(1) : same_slot.increment();
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  // All worker shards are retired by now; the folded total must be exact.
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(telem::counter_value("test.counter_agg"), kThreads * kPerThread);
}

TEST(TelemetryRegistry, MaxGaugeFoldsWithMax) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::reset_metrics_for_test();
  telem::MaxGauge gauge("test.gauge_max");
  gauge.record(7);
  std::thread other([] {
    telem::MaxGauge same("test.gauge_max");
    same.record(19);
  });
  other.join();
  gauge.record(3);
  EXPECT_EQ(gauge.value(), 19u);
}

TEST(TelemetryRegistry, HistogramLogBucketsCountAndSum) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::reset_metrics_for_test();
  telem::Histogram hist("test.hist");
  for (const std::uint64_t value : {0ull, 1ull, 2ull, 3ull, 8ull}) {
    hist.record(value);
  }
  const telem::MetricsSnapshot snapshot = telem::snapshot_metrics();
  const telem::MetricValue* metric = snapshot.find("test.hist");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, telem::MetricKind::kHistogram);
  EXPECT_EQ(metric->count, 5u);
  EXPECT_EQ(metric->sum, 14u);
  // bucket i = samples with bit_width == i: 0 -> b0, 1 -> b1, {2,3} -> b2,
  // 8 -> b4.
  ASSERT_GE(metric->buckets.size(), 5u);
  EXPECT_EQ(metric->buckets[0], 1u);
  EXPECT_EQ(metric->buckets[1], 1u);
  EXPECT_EQ(metric->buckets[2], 2u);
  EXPECT_EQ(metric->buckets[3], 0u);
  EXPECT_EQ(metric->buckets[4], 1u);
}

TEST(TelemetryRegistry, DisabledFlagSuppressesRecording) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::reset_metrics_for_test();
  telem::Counter counter("test.disabled");
  counter.add(5);
  telem::set_enabled(false);
  counter.add(100);
  telem::set_enabled(true);
  counter.add(2);
  EXPECT_EQ(counter.value(), 7u);
}

TEST(TelemetryRegistry, SnapshotIsSortedByName) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::Counter a("test.zzz");
  telem::Counter b("test.aaa");
  a.increment();
  b.increment();
  const telem::MetricsSnapshot snapshot = telem::snapshot_metrics();
  for (std::size_t i = 1; i < snapshot.metrics.size(); ++i) {
    EXPECT_LT(snapshot.metrics[i - 1].name, snapshot.metrics[i].name);
  }
}

// ---------------------------------------------------------------------------
// Trace recording and Chrome trace-event export.

TEST(TelemetryTrace, ExportIsBalancedAndCarriesLanes) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::start_tracing();
  telem::set_thread_lane("test.main");
  {
    RQSIM_SPAN("test.outer");
    {
      RQSIM_SPAN("test.inner");
      telem::trace_instant("test.instant");
      telem::trace_counter("test.value", 42);
    }
  }
  std::thread worker([] {
    telem::set_thread_lane("test.worker");
    RQSIM_SPAN("test.worker_span");
    telem::trace_instant("test.worker_instant");
  });
  worker.join();
  telem::stop_tracing();

  const std::string json = telem::trace_to_json();
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_GE(count_occurrences(json, "\"ph\":\"B\""), 3u);
  EXPECT_NE(json.find("test.inner"), std::string::npos);
  EXPECT_NE(json.find("test.worker_span"), std::string::npos);
  EXPECT_NE(json.find("\"test.main\""), std::string::npos);
  EXPECT_NE(json.find("\"test.worker\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);

  const std::string path = testing::TempDir() + "telemetry_trace_test.json";
  const long events = telem::export_trace(path);
  EXPECT_GT(events, 0);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::remove(path.c_str());
}

TEST(TelemetryTrace, InactiveRecordingIsDropped) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::start_tracing();
  telem::stop_tracing();
  {
    RQSIM_SPAN("test.after_stop");
    telem::trace_instant("test.after_stop_instant");
  }
  const std::string json = telem::trace_to_json();
  EXPECT_EQ(json.find("test.after_stop"), std::string::npos);
}

TEST(TelemetryTrace, UntracedWorkerThreadsDoNotGrowRegistry) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  // Regression: the tree executor spawns fresh worker threads per run and
  // names their lanes unconditionally; with tracing inactive that
  // must not allocate (and strand) a per-thread event buffer per run, or a
  // long-running service leaks ~2 MB x threads per job.
  ASSERT_FALSE(telem::tracing_active());
  const DeviceModel dev = yorktown_device();
  const BenchmarkEntry entry = make_table1_suite(dev).front();
  const std::size_t buffers_before = telem::trace_thread_buffers();
  for (int rep = 0; rep < 3; ++rep) {
    NoisyRunConfig config;
    config.num_trials = 64;
    config.seed = 3;
    config.num_threads = 8;
    const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, config);
    EXPECT_GT(result.ops, 0u);
  }
  EXPECT_EQ(telem::trace_thread_buffers(), buffers_before);
}

TEST(TelemetryTrace, RestartWhileSpanOpenDoesNotPoisonLane) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::start_tracing();
  {
    telem::TraceSpan stale("test.preepoch");
    // Restart mid-span (quiescence violated): the span's B is cleared, so
    // its destructor must not emit a stray E or underflow the open-span
    // reservation count (which would drop every later event on this lane).
    telem::start_tracing();
  }
  {
    RQSIM_SPAN("test.after_restart");
    telem::trace_instant("test.after_restart_instant");
  }
  telem::stop_tracing();
  const std::string json = telem::trace_to_json();
  EXPECT_EQ(json.find("test.preepoch"), std::string::npos);
  EXPECT_NE(json.find("test.after_restart"), std::string::npos);
  EXPECT_NE(json.find("test.after_restart_instant"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(TelemetryTrace, ExportEscapesAndSurvivesLongEventNames) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  // Convention says span names are plain literals, but export must stay
  // well-formed JSON even when one isn't: quotes/backslashes escape, and a
  // name longer than any internal formatting buffer survives untruncated.
  static const std::string long_name(300, 'x');
  telem::start_tracing();
  telem::trace_instant("test.quote\"back\\slash");
  telem::trace_instant(long_name.c_str());
  telem::stop_tracing();
  const std::string json = telem::trace_to_json();
  EXPECT_NE(json.find("test.quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find(long_name), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reconciliation: registry counter == executed ops == PlanVerifier proof.

std::vector<Trial> trials_as_run_noisy_generates(const BenchmarkEntry& entry,
                                                 const NoiseModel& noise,
                                                 std::size_t num_trials,
                                                 std::uint64_t seed) {
  const CircuitContext ctx(entry.compiled);
  Rng rng(seed);
  std::vector<Trial> trials =
      generate_trials(entry.compiled, ctx.layering, noise, num_trials, rng);
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);
  return trials;
}

TEST(TelemetryReconciliation, CounterMatchesProofAndResultOnTableOneSuite) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::set_enabled(true);
  const DeviceModel dev = yorktown_device();
  constexpr std::size_t kTrials = 300;
  constexpr std::uint64_t kSeed = 11;
  for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
    // Statically proved op count for the exact schedule run_noisy executes.
    const std::vector<Trial> trials =
        trials_as_run_noisy_generates(entry, dev.noise, kTrials, kSeed);
    const CircuitContext ctx(entry.compiled);
    const PlanProof proof = PlanVerifier(ctx).verify_schedule(TrialSet(trials));
    ASSERT_TRUE(proof.ok) << entry.name << ": " << proof.diagnostic;

    NoisyRunConfig config;
    config.num_trials = kTrials;
    config.seed = kSeed;
    config.mode = ExecutionMode::kCachedReordered;
    const std::uint64_t counter_before = telem::counter_value("sim.matvec_ops");
    const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, config);
    const std::uint64_t counter_delta =
        telem::counter_value("sim.matvec_ops") - counter_before;

    EXPECT_TRUE(result.telemetry.measured) << entry.name;
    EXPECT_EQ(result.ops, proof.cached_ops) << entry.name;
    EXPECT_EQ(counter_delta, result.ops) << entry.name;
    EXPECT_EQ(result.telemetry.measured_ops, result.ops) << entry.name;
    EXPECT_EQ(result.telemetry.ops_saved_vs_baseline,
              result.baseline_ops - result.ops)
        << entry.name;
  }
}

TEST(TelemetryReconciliation, ParallelTreeCounterMatchesAtOneTwoEightThreads) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::set_enabled(true);
  const DeviceModel dev = yorktown_device();
  constexpr std::size_t kTrials = 300;
  constexpr std::uint64_t kSeed = 11;
  for (const BenchmarkEntry& entry : make_table1_suite(dev)) {
    const std::vector<Trial> trials =
        trials_as_run_noisy_generates(entry, dev.noise, kTrials, kSeed);
    const CircuitContext ctx(entry.compiled);
    const PlanProof proof = PlanVerifier(ctx).verify_schedule(TrialSet(trials));
    ASSERT_TRUE(proof.ok) << entry.name << ": " << proof.diagnostic;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      NoisyRunConfig config;
      config.num_trials = kTrials;
      config.seed = kSeed;
      config.num_threads = threads;
      const std::uint64_t counter_before = telem::counter_value("sim.matvec_ops");
      const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, config);
      const std::uint64_t counter_delta =
          telem::counter_value("sim.matvec_ops") - counter_before;
      EXPECT_TRUE(result.telemetry.measured) << entry.name;
      // The tree executes the sequential cached schedule's op count exactly
      // (zero redundant prefix work), the runtime counter measures the same
      // total, and both equal the static proof.
      EXPECT_EQ(result.ops, proof.cached_ops)
          << entry.name << " threads=" << threads;
      EXPECT_EQ(counter_delta, result.ops) << entry.name << " threads=" << threads;
      EXPECT_EQ(result.telemetry.measured_ops, result.ops)
          << entry.name << " threads=" << threads;
    }
  }
}

TEST(TelemetryReconciliation, BaselineModeCounterMatchesBaselineOps) {
  if (!telem::compiled()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telem::set_enabled(true);
  const DeviceModel dev = yorktown_device();
  const BenchmarkEntry entry = make_table1_suite(dev)[1];  // grover
  NoisyRunConfig config;
  config.num_trials = 200;
  config.seed = 3;
  config.mode = ExecutionMode::kBaseline;
  const std::uint64_t counter_before = telem::counter_value("sim.matvec_ops");
  const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, config);
  EXPECT_EQ(telem::counter_value("sim.matvec_ops") - counter_before, result.ops);
  EXPECT_EQ(result.telemetry.measured_ops, result.ops);
  EXPECT_EQ(result.ops, result.baseline_ops);
  EXPECT_EQ(result.telemetry.ops_saved_vs_baseline, 0u);
  EXPECT_EQ(result.telemetry.prefix_cache_hit_ratio, 0.0);
}

// ---------------------------------------------------------------------------
// Surfacing: protocol stats snapshot, job-result telemetry block, CLI.

TEST(TelemetrySurfacing, ProtocolStatsCarriesMetricsSnapshot) {
  ServiceConfig service_config;
  service_config.num_workers = 0;  // deterministic: drain on this thread
  SimService service(service_config);
  ProtocolHandler handler(service);

  const Json submit = Json::parse(
      "{\"op\":\"submit\",\"workload\":{\"circuit\":\"qft4\"},"
      "\"trials\":64,\"seed\":5}");
  const Json accepted = handler.handle(submit);
  ASSERT_TRUE(accepted.get_bool("ok", false)) << accepted.dump();
  service.run_pending();

  const Json response = handler.handle(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(response.get_bool("ok", false));
  ASSERT_TRUE(response.has("telemetry"));
  const Json& metrics = response.at("telemetry");
  if (telem::compiled()) {
    // The job above executed gates, so the op counter must be present and
    // positive, and histograms serialize structurally.
    ASSERT_TRUE(metrics.has("sim.matvec_ops"));
    EXPECT_GT(metrics.at("sim.matvec_ops").as_u64(), 0u);
    ASSERT_TRUE(metrics.has("service.job_exec_us"));
    EXPECT_TRUE(metrics.at("service.job_exec_us").has("count"));
    EXPECT_TRUE(metrics.at("service.job_exec_us").has("buckets"));
  } else {
    EXPECT_TRUE(metrics.as_object().empty());
  }

  // Terminal job result carries the TelemetrySummary block.
  const Json status = handler.handle(Json::parse("{\"op\":\"status\",\"job\":1}"));
  ASSERT_TRUE(status.get_bool("ok", false)) << status.dump();
  ASSERT_TRUE(status.has("result")) << status.dump();
  const Json& result = status.at("result");
  ASSERT_TRUE(result.has("telemetry"));
  const Json& summary = result.at("telemetry");
  EXPECT_TRUE(summary.has("measured_ops"));
  EXPECT_TRUE(summary.has("prefix_cache_hit_ratio"));
  EXPECT_TRUE(summary.has("pool_reuses"));
  if (telem::compiled()) {
    EXPECT_EQ(summary.at("measured_ops").as_u64(), result.at("ops").as_u64());
  }
}

TEST(TelemetrySurfacing, CliTraceOutWritesChromeTrace) {
  const std::string path = testing::TempDir() + "cli_trace_out.json";
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli({"rqsim", "run", "--circuit", "qft4", "--trials", "64",
                            "--threads", "2", "--trace-out", path},
                           out, err);
  if (!telem::compiled()) {
    EXPECT_EQ(code, 1);
    EXPECT_NE(err.str().find("RQSIM_TELEMETRY"), std::string::npos);
    return;
  }
  ASSERT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("trace written to"), std::string::npos);
  EXPECT_NE(out.str().find("telemetry:"), std::string::npos);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string trace = buffer.str();
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);
  EXPECT_NE(trace.find("tree_exec.worker-"), std::string::npos);
  EXPECT_EQ(count_occurrences(trace, "\"ph\":\"B\""),
            count_occurrences(trace, "\"ph\":\"E\""));
  std::remove(path.c_str());
}

TEST(TelemetrySurfacing, CliStatsVerbNeedsEndpoint) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli({"rqsim", "stats"}, out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.str().find("--socket"), std::string::npos);
}

}  // namespace
}  // namespace rqsim
