// ThreadSanitizer smoke test for the telemetry subsystem (plain main, no
// gtest).
//
// The registry's concurrency contract: any number of threads record into
// their private shards while other threads snapshot, intern new metrics,
// start/stop tracing, and exit (folding shards into the retired
// accumulator). This binary exercises all of those overlaps at once —
// recorders hammering counters/gauges/histograms and trace events, a reader
// thread snapshotting in a loop, short-lived threads interning fresh names
// and dying — and cross-checks the folded totals for exactness (a lost
// update would show up even where TSan's interleaving misses it).
//
// In the tier-1 flow the telemetry sources are recompiled into this target
// with -fsanitize=thread (tests/CMakeLists.txt); under the `tsan` preset
// the whole tree is instrumented.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

int failures = 0;

#define SMOKE_CHECK(cond)                                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

namespace telem = rqsim::telemetry;

void stress_registry_and_trace() {
  telem::set_enabled(true);
  telem::reset_metrics_for_test();
  telem::start_tracing();

  constexpr std::size_t kRecorders = 6;
  constexpr std::uint64_t kIterations = 20'000;
  std::atomic<bool> stop_reader{false};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kRecorders; ++t) {
    threads.emplace_back([t] {
      telem::set_thread_lane("tsan.recorder-" + std::to_string(t));
      telem::Counter counter("tsan.shared_counter");
      telem::MaxGauge gauge("tsan.shared_gauge");
      telem::Histogram hist("tsan.shared_hist");
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        counter.increment();
        gauge.record(t * kIterations + i);
        hist.record(i);
        if (i % 256 == 0) {
          RQSIM_SPAN("tsan.recorder_burst");
          telem::trace_instant("tsan.tick");
          telem::trace_counter("tsan.progress", i);
        }
      }
    });
  }

  // Reader thread: snapshots race against the recorders by design; every
  // intermediate fold must be internally consistent (sum <= final total).
  std::thread reader([&stop_reader] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const telem::MetricsSnapshot snapshot = telem::snapshot_metrics();
      const telem::MetricValue* counter = snapshot.find("tsan.shared_counter");
      if (counter != nullptr) {
        SMOKE_CHECK(counter->value <= kRecorders * kIterations);
      }
    }
  });

  // Churn: short-lived threads interning fresh names then exiting, so shard
  // retirement overlaps with recording and snapshotting.
  for (int round = 0; round < 20; ++round) {
    std::thread churn([round] {
      telem::Counter mine(round % 2 == 0 ? "tsan.churn_even" : "tsan.churn_odd");
      mine.add(7);
    });
    churn.join();
  }

  for (std::thread& t : threads) {
    t.join();
  }
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();
  telem::stop_tracing();

  SMOKE_CHECK(telem::counter_value("tsan.shared_counter") ==
              kRecorders * kIterations);
  SMOKE_CHECK(telem::counter_value("tsan.churn_even") == 70u);
  SMOKE_CHECK(telem::counter_value("tsan.churn_odd") == 70u);
  const telem::MetricsSnapshot snapshot = telem::snapshot_metrics();
  const telem::MetricValue* gauge = snapshot.find("tsan.shared_gauge");
  SMOKE_CHECK(gauge != nullptr &&
              gauge->value == (kRecorders - 1) * kIterations + kIterations - 1);
  const telem::MetricValue* hist = snapshot.find("tsan.shared_hist");
  SMOKE_CHECK(hist != nullptr && hist->count == kRecorders * kIterations);

  // Export after quiescence: B/E balance survives concurrent recording.
  const std::string json = telem::trace_to_json();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = json.find("\"ph\":\"B\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"B\"", pos + 1)) {
    ++begins;
  }
  for (std::size_t pos = json.find("\"ph\":\"E\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"E\"", pos + 1)) {
    ++ends;
  }
  SMOKE_CHECK(begins == ends);
  SMOKE_CHECK(begins > 0);
}

}  // namespace

int main() {
  stress_registry_and_trace();
  if (failures == 0) {
    std::printf("telemetry_tsan_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "telemetry_tsan_smoke: %d check(s) failed\n", failures);
  return 1;
}
