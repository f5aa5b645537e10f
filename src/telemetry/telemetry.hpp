#pragma once

// Lock-free metrics registry.
//
// Design (DESIGN.md §10): every thread that records a metric owns a private
// ThreadShard of relaxed std::atomic<uint64_t> slots. The owner is the only
// writer of its slots, so recording is a thread-local lookup plus a relaxed
// load/store — no contended cache line, no lock, no fence. Readers
// (snapshot_metrics, Counter::value) walk all shards under the registry
// mutex and fold: counters and histograms sum, gauges take the max. The
// mutex guards only the shard list and the name table; it is never taken on
// the record path. When a thread exits, its shard is folded into a retired
// accumulator so no samples are lost.
//
// Handles (Counter/MaxGauge/Histogram) intern their name once at
// construction and store a slot id; construct them as namespace-scope or
// function-local statics at the instrumentation site. Two handles with the
// same name share the same slot, so independent translation units can
// increment one logical metric (e.g. "sim.matvec_ops").
//
// Cost when disabled: `set_enabled(false)` (or env RQSIM_TELEMETRY=0) turns
// every record into a relaxed atomic-bool load and a branch. Compiling with
// -DRQSIM_TELEMETRY=OFF (cmake option) removes even that: the classes below
// collapse to empty inline no-ops.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rqsim::telemetry {

// Capacity of the fixed slot tables inside each per-thread shard. Interning
// a metric past these limits is a programming error and aborts in debug
// (RQSIM_CHECK); the totals are generous — the whole codebase uses < 60.
inline constexpr std::size_t kMaxScalarMetrics = 256;
inline constexpr std::size_t kMaxHistograms = 64;
// Log-scale histogram: bucket i counts samples with bit_width(value) == i,
// i.e. bucket 0 holds zeros and bucket i>0 holds [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

enum class MetricKind : std::uint8_t { kCounter, kMaxGauge, kHistogram };

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;              // counter total or gauge max
  std::uint64_t count = 0;              // histogram sample count
  std::uint64_t sum = 0;                // histogram sample sum
  std::vector<std::uint64_t> buckets;   // histogram only (log2 buckets)
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* find(const std::string& name) const {
    for (const MetricValue& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Estimate the q-quantile (q in [0,1]) of a log2-bucketed histogram with
/// `count` total samples: walk the cumulative bucket counts to the bucket
/// holding the q-th sample and interpolate linearly inside its value range
/// [2^(i-1), 2^i) (bucket 0 is exactly {0}). Pure data math — always
/// compiled, so the router can compute fleet quantiles over merged
/// snapshots regardless of either side's RQSIM_TELEMETRY setting. Returns
/// 0 for empty histograms.
double histogram_quantile(const std::vector<std::uint64_t>& buckets,
                          std::uint64_t count, double q);

/// Fold `src` into `dst` by metric name, each kind with its own rule:
/// counters and histograms (count, sum, per-bucket) add, max-gauges take
/// the max. Metrics unknown to `dst` are appended; `dst` stays sorted by
/// name. This is how the fleet router aggregates per-backend registry
/// snapshots into one fleet view — pure data folding, so it works the same
/// whether this process compiled telemetry in or out.
void merge_snapshot(MetricsSnapshot& dst, const MetricsSnapshot& src);

/// True when the registry is compiled in (RQSIM_TELEMETRY=ON).
constexpr bool compiled() {
#if defined(RQSIM_TELEMETRY_OFF)
  return false;
#else
  return true;
#endif
}

#if !defined(RQSIM_TELEMETRY_OFF)

/// Runtime switch. Defaults to on; env RQSIM_TELEMETRY=0/off/false starts it
/// off. Reading it is a relaxed atomic load.
bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t delta);
  void increment() { add(1); }
  /// Folded total across live shards and retired threads.
  std::uint64_t value() const;

 private:
  std::uint32_t id_;
};

/// Records the maximum value ever seen (e.g. a high-water mark).
class MaxGauge {
 public:
  explicit MaxGauge(const char* name);
  void record(std::uint64_t value);
  std::uint64_t value() const;

 private:
  std::uint32_t id_;
};

/// Log-scale histogram: constant-size, constant-time record, exact count
/// and sum, power-of-two resolution on the distribution shape.
class Histogram {
 public:
  explicit Histogram(const char* name);
  void record(std::uint64_t value);

 private:
  std::uint32_t id_;
};

/// Aggregate every metric across live and retired shards.
MetricsSnapshot snapshot_metrics();

/// Folded total for a metric by name; 0 if it was never interned.
std::uint64_t counter_value(const std::string& name);

/// Zero every slot (live shards and retired totals). Test-only: callers
/// must guarantee no thread is concurrently recording.
void reset_metrics_for_test();

#else  // RQSIM_TELEMETRY_OFF — compile-time escape hatch: all no-ops.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}

class Counter {
 public:
  explicit Counter(const char*) {}
  void add(std::uint64_t) {}
  void increment() {}
  std::uint64_t value() const { return 0; }
};

class MaxGauge {
 public:
  explicit MaxGauge(const char*) {}
  void record(std::uint64_t) {}
  std::uint64_t value() const { return 0; }
};

class Histogram {
 public:
  explicit Histogram(const char*) {}
  void record(std::uint64_t) {}
};

inline MetricsSnapshot snapshot_metrics() { return {}; }
inline std::uint64_t counter_value(const std::string&) { return 0; }
inline void reset_metrics_for_test() {}

#endif  // RQSIM_TELEMETRY_OFF

}  // namespace rqsim::telemetry
