#pragma once

// Scoped-span tracing with Chrome trace-event export.
//
// Each recording thread appends fixed-size events (name pointer, timestamp,
// phase) to a private buffer, created lazily on the thread's first admitted
// event and pre-reserved from then on — no allocation on the steady-state
// record path, no memory held by threads that never record, and no lock at
// all while tracing is inactive (the record paths bail on an atomic flag).
// While a trace window is open, records take the buffer's own uncontended
// mutex, which is what lets `start_tracing` / `trace_to_json` arrive over
// the wire (the service/router `trace` verb) while jobs execute: the clear
// and the export lock each buffer they touch instead of assuming
// quiescence. `RQSIM_SPAN("layer.what")` opens a RAII span (B event at
// construction, E at destruction); `trace_instant` marks point events
// (checkpoint fork/drop, steals); `trace_counter` records a value timeline
// (MSV token occupancy). Buffers cap at kMaxEventsPerThread; overflow drops
// new events but never unbalances B/E (a span whose B was dropped skips its
// E, admission always reserves room for the Es of already-open spans, and a
// span whose B was cleared by a mid-span start_tracing skips its E via a
// per-buffer window stamp).
//
// Export (`export_trace`) writes the Chrome trace-event JSON array format —
// loadable in Perfetto / chrome://tracing — with one lane per thread
// (set_thread_lane names worker lanes) and timestamps relative to
// start_tracing.
//
// Span names are static string literals of the form "<layer>.<operation>"
// (e.g. "tree_exec.task", "service.execute_batch"); the buffer stores the
// pointer, not a copy.
//
// Distributed tracing: a thread-local trace context (set with the RAII
// TraceContext) tags every span opened while it is in scope with a 64-bit
// trace_id, exported as an "args":{"trace_id":"<hex>"} annotation. The
// router mints an id per submit, forwards it over the JSONL protocol, and
// the service re-establishes the context around each batch's run (its
// "runner.plan" and tree-executor spans) — so spans from separate
// processes join into one causal trace after `rqsim trace-merge`.

#include <cstddef>
#include <cstdint>
#include <string>

namespace rqsim::telemetry {

inline constexpr std::size_t kMaxEventsPerThread = 1u << 16;

/// Mint a fleet-unique 64-bit trace id (never 0; 0 means "no trace").
/// Mixes the monotonic clock with a process-local counter through an
/// integer finalizer — collision-resistant across processes without
/// touching the RNG layer. Available even with telemetry compiled out so
/// protocol code can always propagate ids.
std::uint64_t mint_trace_id();

/// Lower-case hex (no 0x) wire form of a trace id; "0" for the null id.
std::string trace_id_to_hex(std::uint64_t id);

/// Inverse of trace_id_to_hex; returns 0 on malformed input.
std::uint64_t trace_id_from_hex(const std::string& hex);

#if !defined(RQSIM_TELEMETRY_OFF)

/// Begin a fresh trace: clears previously collected events, sets the time
/// origin, and starts admitting records. Safe while other threads record —
/// spans left open across the restart skip their E (per-buffer window
/// stamp) so the export stays balanced.
void start_tracing();

/// Stop admitting records; collected events stay buffered for export.
void stop_tracing();

bool tracing_active();

/// Name the calling thread's lane in the exported trace (e.g.
/// "tree_exec.worker-3"). Safe (and allocation-free) to call whether or not
/// tracing is active: a thread's event buffer is created lazily on its
/// first admitted event, so threads on untraced runs never reserve one.
void set_thread_lane(const std::string& name);

/// Point event ("i" phase) on the calling thread's lane. `name` must be a
/// string literal (the pointer is stored, not the contents).
void trace_instant(const char* name);

/// Counter sample ("C" phase): a stepped value-over-time track.
void trace_counter(const char* name, std::uint64_t value);

/// Retroactive complete event ("X" phase) on the calling thread's lane:
/// a span whose endpoints were captured as clock timestamps before the
/// decision to trace it (queue wait, measured between stored TimePoints).
/// `start_ns`/`end_ns` are in the now_ns()/to_ns() domain.
void trace_complete(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t trace_id);

/// Trace id attached to spans opened by the calling thread (0 = none).
std::uint64_t current_trace_id();

/// Set/clear the calling thread's trace id directly. Prefer TraceContext;
/// this form is for worker loops that inherit a captured context.
void set_trace_context(std::uint64_t trace_id);

/// RAII: tag spans opened on this thread (for the scope's duration) with
/// `trace_id`; restores the previous context on destruction.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t saved_;
};

/// Nanosecond timestamp (now_ns domain) of the last start_tracing(); the
/// `trace collect` verb reports it so trace-merge can align processes.
std::uint64_t trace_epoch_ns();

/// RAII scoped span; prefer the RQSIM_SPAN macro.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t gen_;  // tracing generation the B was admitted under
  bool recorded_;
};

/// Serialize all buffered events as a Chrome trace-event JSON object.
std::string trace_to_json();

/// Write trace_to_json() to `path`. Returns the number of span/instant/
/// counter events written, or -1 on I/O failure.
long export_trace(const std::string& path);

/// Total events dropped to buffer overflow since start_tracing.
std::uint64_t trace_dropped_events();

/// Number of per-thread event buffers currently held by the registry
/// (live + retired-with-events). Buffers are created lazily on a thread's
/// first admitted event and freed at thread exit when empty, so this stays
/// 0 in processes that never trace — exposed so tests can assert that.
std::size_t trace_thread_buffers();

#else  // RQSIM_TELEMETRY_OFF

inline void start_tracing() {}
inline void stop_tracing() {}
inline bool tracing_active() { return false; }
inline void set_thread_lane(const std::string&) {}
inline void trace_instant(const char*) {}
inline void trace_counter(const char*, std::uint64_t) {}
inline void trace_complete(const char*, std::uint64_t, std::uint64_t,
                           std::uint64_t) {}
inline std::uint64_t current_trace_id() { return 0; }
inline void set_trace_context(std::uint64_t) {}

class TraceContext {
 public:
  explicit TraceContext(std::uint64_t) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;
};

inline std::uint64_t trace_epoch_ns() { return 0; }

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

inline std::string trace_to_json() { return "{\"traceEvents\":[]}"; }
inline long export_trace(const std::string&) { return -1; }
inline std::uint64_t trace_dropped_events() { return 0; }
inline std::size_t trace_thread_buffers() { return 0; }

#endif  // RQSIM_TELEMETRY_OFF

}  // namespace rqsim::telemetry

#define RQSIM_TELEM_CONCAT2(a, b) a##b
#define RQSIM_TELEM_CONCAT(a, b) RQSIM_TELEM_CONCAT2(a, b)

/// Open a scoped trace span covering the rest of the enclosing block.
#define RQSIM_SPAN(name)                                    \
  [[maybe_unused]] ::rqsim::telemetry::TraceSpan RQSIM_TELEM_CONCAT( \
      rqsim_span_, __LINE__)(name)
