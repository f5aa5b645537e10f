#include "telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/clock.hpp"

namespace rqsim::telemetry {

// Trace ids ride the JSONL protocol whether or not this process records
// spans.
std::uint64_t mint_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  // splitmix64 finalizer over clock ⊕ sequence: distinct per call in one
  // process (the counter) and collision-resistant across processes (the ns
  // clock), with the avalanche spreading both into all 64 bits.
  std::uint64_t x =
      now_ns() + (counter.fetch_add(1, std::memory_order_relaxed) << 48);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

std::string trace_id_to_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(id));
  return std::string(buf);
}

std::uint64_t trace_id_from_hex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(hex.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<std::uint64_t>(v);
}

namespace {

struct TraceEvent {
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t value;     // 'C' events only
  std::uint64_t trace_id;  // 'B'/'X' events; 0 = untagged
  std::uint64_t dur_ns;    // 'X' events only
  char phase;              // 'B', 'E', 'i', 'C', 'X'
};

struct TraceBuffer {
  // Guards events/open_spans/dropped. The owning thread is the only writer
  // of events, but trace start/collect now arrive over the wire while jobs
  // execute (the router's `trace` verb), so the clear in start_tracing and
  // the read in trace_to_json can no longer assume quiescence. The owner
  // takes this uncontended mutex only while a trace window is active (the
  // record paths bail on tracing_active() first), so untraced runs still
  // record nothing and pay nothing.
  std::mutex events_mu;
  std::vector<TraceEvent> events;
  std::string lane_name;
  int tid = 0;
  std::size_t open_spans = 0;  // admitted Bs awaiting their E
  std::uint64_t dropped = 0;
  // Trace-window stamp, written under events_mu by the start_tracing clear loop
  // (or at creation). A span whose B was admitted under an older stamp
  // skips its E — the B was cleared out from under it — and the decision
  // is made entirely inside this buffer's critical sections, so no global
  // ordering between start_tracing and in-flight spans can unbalance B/E.
  std::uint64_t generation = 0;
  bool retired = false;  // owning thread exited; safe to free on restart

  explicit TraceBuffer(int id) : tid(id) { events.reserve(kMaxEventsPerThread); }

  // Admission keeps one slot in reserve for every open span so an admitted
  // B is always guaranteed its balancing E, even at the capacity cliff.
  bool has_room() const {
    return events.size() + open_spans < kMaxEventsPerThread;
  }
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  std::atomic<bool> active{false};
  // Bumped by every start_tracing; spans admitted under an older generation
  // skip their E (their B was cleared out from under them).
  std::atomic<std::uint64_t> generation{0};
  std::uint64_t epoch_ns = 0;
  int next_tid = 1;
};

// Leaked for the same teardown-ordering reason as the metrics registry.
TraceRegistry& trace_registry() {
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

// Buffer creation is deferred to the first admitted event: short-lived
// worker threads (the tree executor spawns a fresh pool per run)
// call set_thread_lane unconditionally, and eagerly allocating the
// kMaxEventsPerThread reservation for each would grow the registry by
// ~2 MB per thread per run in processes that never trace (a long-running
// service, for instance).
struct BufferOwner {
  TraceBuffer* buffer = nullptr;
  std::string pending_lane;

  TraceBuffer& get() {
    if (buffer == nullptr) {
      TraceRegistry& r = trace_registry();
      std::lock_guard<std::mutex> lock(r.mu);
      auto owned = std::make_unique<TraceBuffer>(r.next_tid++);
      owned->lane_name = pending_lane;
      owned->generation = r.generation.load(std::memory_order_relaxed);
      buffer = owned.get();
      r.buffers.push_back(std::move(owned));
    }
    return *buffer;
  }

  ~BufferOwner() {
    if (buffer == nullptr) return;
    TraceRegistry& r = trace_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (buffer->events.empty()) {
      // Nothing to export: free the reservation now instead of holding it
      // until the next start_tracing (which may never come).
      for (auto it = r.buffers.begin(); it != r.buffers.end(); ++it) {
        if (it->get() == buffer) {
          r.buffers.erase(it);
          break;
        }
      }
    } else {
      // The registry keeps the events for export; just mark the buffer as
      // no longer owner-written so the next start_tracing may free it.
      buffer->retired = true;
    }
  }
};

BufferOwner& local_owner() {
  thread_local BufferOwner owner;
  return owner;
}

TraceBuffer& local_buffer() { return local_owner().get(); }

thread_local std::uint64_t t_trace_id = 0;

void append(char phase, const char* name, std::uint64_t value) {
  TraceBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.events_mu);
  if (!buf.has_room()) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(TraceEvent{name, now_ns(), value, 0, 0, phase});
}

void json_escape_into(std::string& out, const char* s) {
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void start_tracing() {
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t gen =
      r.generation.fetch_add(1, std::memory_order_relaxed) + 1;
  // Free buffers whose threads are gone; reset the rest in place (their
  // owners hold stable pointers). Each clear + restamp happens under the
  // buffer's own mutex, pairing with the record paths.
  r.buffers.erase(std::remove_if(r.buffers.begin(), r.buffers.end(),
                                 [](const std::unique_ptr<TraceBuffer>& b) {
                                   return b->retired;
                                 }),
                  r.buffers.end());
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->events_mu);
    buf->events.clear();
    buf->open_spans = 0;
    buf->dropped = 0;
    buf->generation = gen;
  }
  r.epoch_ns = now_ns();
  r.active.store(true, std::memory_order_release);
}

void stop_tracing() {
  trace_registry().active.store(false, std::memory_order_release);
}

bool tracing_active() {
  return trace_registry().active.load(std::memory_order_acquire);
}

void set_thread_lane(const std::string& name) {
  BufferOwner& owner = local_owner();
  if (owner.buffer == nullptr) {
    // No buffer yet — remember the name without allocating one; it is
    // applied if this thread ever records an event.
    owner.pending_lane = name;
    return;
  }
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  owner.buffer->lane_name = name;
}

void trace_instant(const char* name) {
  if (!tracing_active()) return;
  append('i', name, 0);
}

void trace_counter(const char* name, std::uint64_t value) {
  if (!tracing_active()) return;
  append('C', name, value);
}

void trace_complete(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t trace_id) {
  if (!tracing_active()) return;
  TraceBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.events_mu);
  if (!buf.has_room()) {
    ++buf.dropped;
    return;
  }
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  buf.events.push_back(TraceEvent{name, start_ns, 0, trace_id, dur, 'X'});
}

std::uint64_t current_trace_id() { return t_trace_id; }

void set_trace_context(std::uint64_t trace_id) { t_trace_id = trace_id; }

TraceContext::TraceContext(std::uint64_t trace_id) : saved_(t_trace_id) {
  t_trace_id = trace_id;
}

TraceContext::~TraceContext() { t_trace_id = saved_; }

std::uint64_t trace_epoch_ns() {
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.epoch_ns;
}

TraceSpan::TraceSpan(const char* name) : name_(name), gen_(0), recorded_(false) {
  if (!tracing_active()) return;
  TraceBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.events_mu);
  if (!buf.has_room()) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(TraceEvent{name, now_ns(), 0, t_trace_id, 0, 'B'});
  ++buf.open_spans;
  gen_ = buf.generation;
  recorded_ = true;
}

TraceSpan::~TraceSpan() {
  if (!recorded_) return;
  // If a new trace began while this span was open, its B was cleared and
  // open_spans reset, so recording the E would land a stray pre-epoch event
  // and underflow the reservation count. Skip it instead. The stamp is
  // checked under the buffer mutex: a start_tracing clear either ran before
  // this E (restamped the buffer — mismatch, E skipped) or will run after
  // it (E appended, then wiped with its B), so B/E stay balanced under any
  // interleaving.
  TraceBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.events_mu);
  if (gen_ != buf.generation) return;
  // The matching E slot was reserved at admission; record it even if
  // tracing was stopped mid-span so the export stays balanced.
  buf.events.push_back(TraceEvent{name_, now_ns(), 0, 0, 0, 'E'});
  if (buf.open_spans > 0) --buf.open_spans;
}

std::string trace_to_json() {
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"rqsim\"}}";
  char ts[48];
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->events_mu);
    std::string lane = buf->lane_name;
    if (lane.empty()) lane = "thread-" + std::to_string(buf->tid);
    const std::string tid = std::to_string(buf->tid);
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += tid;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape_into(out, lane.c_str());
    out += "\"}}";
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += tid;
    out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
    out += tid;
    out += "}}";
    for (const TraceEvent& ev : buf->events) {
      if (ev.phase != 'B' && ev.phase != 'E' && ev.phase != 'i' &&
          ev.phase != 'C' && ev.phase != 'X') {
        continue;
      }
      // Timestamps are microseconds in this format; keep ns resolution with
      // three decimals. Events recorded before start_tracing's epoch (stale
      // lanes, or an X span whose start predates the epoch) clamp to 0.
      const std::uint64_t rel =
          ev.ts_ns > r.epoch_ns ? ev.ts_ns - r.epoch_ns : 0;
      std::snprintf(ts, sizeof ts, "%llu.%03u",
                    static_cast<unsigned long long>(rel / 1000),
                    static_cast<unsigned>(rel % 1000));
      // Names go through json_escape_into (no fixed-size formatting buffer)
      // so arbitrarily long names or embedded quotes cannot truncate or
      // break the JSON structure.
      out += ",\n{\"ph\":\"";
      out += ev.phase;
      out += "\",\"pid\":1,\"tid\":";
      out += tid;
      out += ",\"ts\":";
      out += ts;
      if (ev.phase == 'X') {
        std::snprintf(ts, sizeof ts, "%llu.%03u",
                      static_cast<unsigned long long>(ev.dur_ns / 1000),
                      static_cast<unsigned>(ev.dur_ns % 1000));
        out += ",\"dur\":";
        out += ts;
      }
      if (ev.phase == 'i') out += ",\"s\":\"t\"";
      out += ",\"name\":\"";
      json_escape_into(out, ev.name);
      out += "\"";
      if (ev.phase == 'C') {
        out += ",\"args\":{\"value\":";
        out += std::to_string(ev.value);
        out += "}";
      } else if (ev.trace_id != 0) {
        out += ",\"args\":{\"trace_id\":\"";
        out += trace_id_to_hex(ev.trace_id);
        out += "\"}";
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

long export_trace(const std::string& path) {
  const std::string json = trace_to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  if (!ok) return -1;
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  long events = 0;
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->events_mu);
    events += static_cast<long>(buf->events.size());
  }
  return events;
}

std::uint64_t trace_dropped_events() {
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->events_mu);
    total += buf->dropped;
  }
  return total;
}

std::size_t trace_thread_buffers() {
  TraceRegistry& r = trace_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.buffers.size();
}

}  // namespace rqsim::telemetry
