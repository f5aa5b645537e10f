#pragma once

// Per-tenant latency SLO tracking for the service tier.
//
// The paper's reuse optimizations (prefix caching, batch merging, frame
// collapse) are throughput arguments; SLOs are how a fleet operator sees
// whether they translate into *tail latency* wins per tenant. Each
// completed job records three durations — queue wait, execution, and
// end-to-end — into log2 histograms keyed by tenant, plus a fleet-wide
// total. The slowest jobs are kept as exemplars carrying their trace_ids,
// so a p99 regression links directly to a distributed trace of a concrete
// job ("why was tenant alice's 99th-percentile job slow" → open the trace).
//
// This is pure data (plain structs, no atomics): SimService records under
// its own mutex, and the router re-merges the JSON form from many backends
// (service/protocol.hpp slo_to_json/slo_from_json) — both paths the same
// aggregation code, same as MetricsSnapshot merging. It records whether or
// not telemetry is enabled: latency accounting is service functionality,
// not optional instrumentation.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace rqsim::telemetry {

/// Slowest-jobs kept per tenant (and for the fleet total).
inline constexpr std::size_t kSloExemplars = 5;

/// Log2-bucketed latency histogram in microseconds. Same bucket scheme as
/// the registry Histogram (bucket 0 = zeros, bucket i = [2^(i-1), 2^i))
/// so histogram_quantile and the Prometheus exposition treat both alike.
struct LatencyHistogram {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(kHistogramBuckets, 0);

  void record(std::uint64_t us);
  void merge(const LatencyHistogram& other);
  double quantile(double q) const { return histogram_quantile(buckets, count, q); }
};

/// One slow job: enough to find it (job id on its backend) and to pull its
/// distributed trace (trace_id, hex-encoded on the wire).
struct SloExemplar {
  std::uint64_t job_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t e2e_us = 0;
};

struct TenantSlo {
  LatencyHistogram queue_us;
  LatencyHistogram exec_us;
  LatencyHistogram e2e_us;
  /// Top-kSloExemplars jobs by e2e latency, slowest first.
  std::vector<SloExemplar> exemplars;

  void record(std::uint64_t job_id, std::uint64_t trace_id,
              std::uint64_t queue, std::uint64_t exec);
  void merge(const TenantSlo& other);
};

/// Per-tenant + aggregate SLO state. Not thread-safe; the owner (SimService,
/// or the router's stats fan-out) brings its own lock.
struct SloTracker {
  std::map<std::string, TenantSlo> tenants;
  TenantSlo total;

  void record(const std::string& tenant, std::uint64_t job_id,
              std::uint64_t trace_id, std::uint64_t queue_us,
              std::uint64_t exec_us);
  void merge(const SloTracker& other);
};

}  // namespace rqsim::telemetry
