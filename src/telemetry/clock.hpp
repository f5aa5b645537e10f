#pragma once

// The project's single sanctioned home for monotonic wallclock timing.
// Analyzer rule RQS004 (tools/analyze) bans std::chrono::steady_clock and
// high_resolution_clock everywhere outside src/telemetry/ and src/common/,
// so every layer that needs "how long did this take" goes through these
// helpers (or through trace spans, which use the same clock). That keeps one
// clock domain across metrics, traces and service latencies — mixing clocks
// is how cross-subsystem timelines stop lining up.
//
// These helpers work whether or not telemetry is enabled at run time:
// timing a run is core functionality, recording it into the registry is the
// optional part.

#include <chrono>
#include <cstdint>

namespace rqsim::telemetry {

using TimePoint = std::chrono::steady_clock::time_point;

inline TimePoint clock_now() { return std::chrono::steady_clock::now(); }

inline double ms_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Monotonic nanoseconds since an arbitrary epoch; trace timestamps use this.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_now().time_since_epoch())
          .count());
}

/// A TimePoint in the same ns domain as now_ns(); lets code that stores
/// TimePoints (job submit/start times) emit retroactive trace events.
inline std::uint64_t to_ns(TimePoint tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// First call pins the process start; the service constructor calls this so
/// uptime counts from service birth, not from the first stats request.
inline TimePoint process_start_time() {
  static const TimePoint start = clock_now();
  return start;
}

inline double process_uptime_ms() {
  return ms_between(process_start_time(), clock_now());
}

class Stopwatch {
 public:
  Stopwatch() : start_(clock_now()) {}
  void reset() { start_ = clock_now(); }
  double elapsed_ms() const { return ms_between(start_, clock_now()); }

 private:
  TimePoint start_;
};

}  // namespace rqsim::telemetry
